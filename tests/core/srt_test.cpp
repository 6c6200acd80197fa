// SRT baseline: static index construction and routing semantics, plus the
// DirQ-vs-SRT contrast the paper's §2 argues.
#include "core/srt.hpp"

#include <gtest/gtest.h>

#include "core/network.hpp"
#include "data/field_model.hpp"
#include "metrics/audit.hpp"
#include "net/placement.hpp"
#include "query/workload.hpp"
#include "sim/rng.hpp"

namespace dirq::core {
namespace {

constexpr SensorType kT = kSensorTemperature;
constexpr SensorType kH = kSensorHumidity;

net::Topology hetero_line() {
  // 0 - 1(T) - 2(H) - 3(T,H)
  std::vector<net::Node> nodes(4);
  for (std::size_t i = 0; i < 4; ++i) nodes[i].x = static_cast<double>(i);
  nodes[1].sensors = {kT};
  nodes[2].sensors = {kH};
  nodes[3].sensors = {kT, kH};
  return net::Topology(std::move(nodes), 1.1);
}

TEST(Srt, IndexAggregatesSubtreeTypes) {
  net::Topology topo = hetero_line();
  net::SpanningTree tree(topo, 0);
  SrtScheme srt(topo, tree);
  EXPECT_EQ(srt.subtree_types(3), (std::set<SensorType>{kT, kH}));
  EXPECT_EQ(srt.subtree_types(2), (std::set<SensorType>{kT, kH}));
  EXPECT_EQ(srt.subtree_types(1), (std::set<SensorType>{kT, kH}));
}

TEST(Srt, BuildCostIsTwoPerNonRootNode) {
  net::Topology topo = hetero_line();
  net::SpanningTree tree(topo, 0);
  SrtScheme srt(topo, tree);
  EXPECT_EQ(srt.build_cost(), 6);
}

TEST(Srt, ValueWindowDoesNotPrune) {
  // SRT delivers a temperature query to every T-capable subtree member no
  // matter how selective the value window is.
  net::Topology topo = hetero_line();
  net::SpanningTree tree(topo, 0);
  SrtScheme srt(topo, tree);
  const auto narrow = srt.disseminate(query::RangeQuery{1, kT, 1.0, 1.1, 0});
  const auto wide = srt.disseminate(query::RangeQuery{2, kT, -1e9, 1e9, 0});
  EXPECT_EQ(narrow.received, wide.received);
  EXPECT_EQ(narrow.cost, wide.cost);
}

TEST(Srt, TypePruningWorks) {
  // 0 - 1(T only, leaf), 0 - 2(H only, leaf).
  std::vector<net::Node> nodes(3);
  nodes[1].sensors = {kT};
  nodes[2].sensors = {kH};
  net::Topology topo(nodes, {{0, 1}, {0, 2}});
  net::SpanningTree tree(topo, 0);
  SrtScheme srt(topo, tree);
  const auto out = srt.disseminate(query::RangeQuery{1, kT, 0.0, 1.0, 0});
  EXPECT_EQ(out.received, (std::vector<NodeId>{1}));
}

TEST(Srt, RegionPruningWorks) {
  net::Topology topo = hetero_line();
  net::SpanningTree tree(topo, 0);
  SrtScheme srt(topo, tree);
  query::RangeQuery q{1, kT, -1e9, 1e9, 0};
  q.region = net::BBox{0.0, -1.0, 1.5, 1.0};  // node 1 only
  const auto out = srt.disseminate(q);
  EXPECT_EQ(out.received, (std::vector<NodeId>{1}));
}

TEST(Srt, RebuildAfterChurnRecountsIndex) {
  net::Topology topo = hetero_line();
  net::SpanningTree tree(topo, 0);
  SrtScheme srt(topo, tree);
  topo.kill_node(3);
  tree.rebuild(topo);
  srt.rebuild(topo, tree);
  EXPECT_EQ(srt.subtree_types(2), (std::set<SensorType>{kH}));
  const auto out = srt.disseminate(query::RangeQuery{1, kT, -1e9, 1e9, 0});
  EXPECT_EQ(out.received, (std::vector<NodeId>{1}));
}

TEST(Srt, CoversEveryCapableNodeAlways) {
  sim::Rng rng(42);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  net::SpanningTree tree(topo, 0);
  SrtScheme srt(topo, tree);
  const auto out = srt.disseminate(query::RangeQuery{1, kT, 123.0, 124.0, 0});
  // Every T-capable node received (coverage by construction) plus the
  // forwarders toward them.
  for (NodeId u : topo.nodes_with_sensor(kT)) {
    EXPECT_TRUE(std::binary_search(out.received.begin(), out.received.end(), u));
  }
}

TEST(SrtVsDirq, DirqPrunesWhereSrtCannot) {
  // The §2 contrast, end to end: on selective value queries DirQ's dynamic
  // ranges prune far below SRT's static index, at the price of update
  // traffic SRT does not pay.
  sim::Rng rng(42);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  data::Environment env(topo, 4, rng.substream("env"));
  NetworkConfig cfg;
  cfg.fixed_pct = 3.0;
  DirqNetwork net(topo, 0, cfg);
  for (std::int64_t e = 0; e < 100; ++e) {
    env.advance_to(e);
    net.process_epoch(env, e);
  }
  SrtScheme srt(topo, net.tree());
  query::WorkloadGenerator gen(topo, net.tree(), env,
                               query::WorkloadConfig{0.2, 0.02},
                               rng.substream("wl"));
  sim::RunningStat dirq_cost, srt_cost, dirq_recv, srt_recv;
  for (int i = 0; i < 50; ++i) {
    const query::RangeQuery q = gen.next(100);
    const QueryOutcome d = net.inject(0, q, 100);
    const SrtScheme::Outcome s = srt.disseminate(q);
    dirq_cost.push(static_cast<double>(d.cost));
    srt_cost.push(static_cast<double>(s.cost));
    dirq_recv.push(static_cast<double>(d.received.size()));
    srt_recv.push(static_cast<double>(s.received.size()));
    // SRT never misses a node DirQ reaches for the same type (its reach is
    // a superset of any value-based pruning of capable subtrees).
    EXPECT_TRUE(std::includes(s.received.begin(), s.received.end(),
                              d.believed_sources.begin(),
                              d.believed_sources.end()));
  }
  EXPECT_LT(dirq_cost.mean(), srt_cost.mean());
  EXPECT_LT(dirq_recv.mean(), srt_recv.mean());
}

}  // namespace
}  // namespace dirq::core
