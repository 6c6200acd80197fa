// The batch reading plane (ReadingSource::readings) must be a pure
// transport optimisation: for the pinned backend — the one every golden is
// recorded against — batch values are bit-identical to per-node reading()
// calls, across scenario seeds, node subsets, query orders, and both
// dispatch paths (the Environment override and the base-class default).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "data/field_model.hpp"
#include "net/placement.hpp"
#include "sim/rng.hpp"

namespace dirq::data {
namespace {

/// A sink-style probe that only sees the ReadingSource interface, so the
/// default readings() implementation is exercised through the base class.
void expect_batch_matches_loop(const ReadingSource& src,
                               std::span<const NodeId> nodes,
                               SensorType type) {
  std::vector<double> batch(nodes.size());
  src.readings(type, nodes, batch);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(batch[i], src.reading(nodes[i], type))
        << "node " << nodes[i] << " type " << type;
  }
}

/// Overrides only the per-node path, so readings() is the base-class
/// default.
class PerNodeOnly final : public ReadingSource {
 public:
  explicit PerNodeOnly(ReadingSource& inner) : inner_(inner) {}
  void advance_to(std::int64_t epoch) override { inner_.advance_to(epoch); }
  [[nodiscard]] double reading(NodeId node, SensorType type) const override {
    return inner_.reading(node, type);
  }
  [[nodiscard]] std::size_t type_count() const override {
    return inner_.type_count();
  }
  [[nodiscard]] std::int64_t epoch() const override { return inner_.epoch(); }

 private:
  ReadingSource& inner_;
};

class ReadingBatchAcrossSeeds : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ReadingBatchAcrossSeeds, PinnedBatchBitIdenticalToPerNodeLoop) {
  // The scenario-grid seeds: the same worlds the golden matrix pins.
  sim::Rng rng(GetParam());
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  Environment env(topo, 4, rng.substream("environment"));

  std::vector<NodeId> all(topo.size());
  std::iota(all.begin(), all.end(), NodeId{0});
  std::vector<NodeId> shuffled = all;
  sim::Rng order_rng(GetParam() ^ 0xABCDULL);
  order_rng.shuffle(std::span<NodeId>(shuffled));
  // A subset with repeats, as the sampling gate may produce.
  std::vector<NodeId> subset;
  for (std::size_t i = 0; i < all.size(); i += 3) subset.push_back(all[i]);
  subset.push_back(all.front());
  subset.push_back(all.front());

  for (const std::int64_t epoch : {0, 1, 7, 100, 101, 500}) {
    env.advance_to(epoch);
    for (SensorType t = 0; t < 4; ++t) {
      expect_batch_matches_loop(env, all, t);
      expect_batch_matches_loop(env, shuffled, t);
      expect_batch_matches_loop(env, subset, t);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ScenarioSeeds, ReadingBatchAcrossSeeds,
                         ::testing::Values(1, 42, 1337));

TEST(ReadingBatch, ScaledTopologyBatchMatches) {
  sim::Rng rng(42);
  net::Topology topo = net::random_connected(net::scaled_placement(200), rng);
  Environment env(topo, 4, rng.substream("environment"));
  env.advance_to(50);
  std::vector<NodeId> all(topo.size());
  std::iota(all.begin(), all.end(), NodeId{0});
  for (SensorType t = 0; t < 4; ++t) {
    expect_batch_matches_loop(env, all, t);
  }
}

TEST(ReadingBatch, DefaultImplementationDelegatesPerNode) {
  // PerNodeOnly does not override readings(); the base-class default must
  // delegate per node and agree with reading().
  sim::Rng rng(7);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  Environment env(topo, 2, rng.substream("environment"));
  PerNodeOnly source(env);
  source.advance_to(3);
  std::vector<NodeId> all(topo.size());
  std::iota(all.begin(), all.end(), NodeId{0});
  expect_batch_matches_loop(source, all, 0);
  expect_batch_matches_loop(source, all, 1);
}

TEST(ReadingBatch, EmptyBatchIsANoOp) {
  sim::Rng rng(7);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  Environment env(topo, 2, rng.substream("environment"));
  std::vector<NodeId> none;
  std::vector<double> out;
  env.readings(0, none, out);  // must not throw or write
  SUCCEED();
}

TEST(ReadingBatch, UnknownTypeThrowsLikePerNodePath) {
  sim::Rng rng(7);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  Environment env(topo, 2, rng.substream("environment"));
  std::vector<NodeId> one{0};
  std::vector<double> out(1);
  EXPECT_THROW(env.readings(5, one, out), std::out_of_range);
}

}  // namespace
}  // namespace dirq::data
