// Intra-type batch chunking: the capability flag, and the contract it
// advertises — fetching a type's reading batch in disjoint sub-span chunks
// (serially in any order, or concurrently from a thread pool) must be
// bitwise identical to one whole-batch readings() call, because readings
// only read the cell plane advance_to fills, per-node caches are
// node-disjoint, and anchors are pure functions of (seed, stream, block).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "data/fast_field.hpp"
#include "data/field_model.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"

namespace dirq::data {
namespace {

constexpr std::size_t kTypes = 2;

net::Topology grid_topology(std::size_t side) {
  std::vector<net::Node> nodes(side * side);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].x = static_cast<double>(i % side);
    nodes[i].y = static_cast<double>(i / side);
    nodes[i].sensors = {0, 1};
  }
  return net::Topology(std::move(nodes), 1.5);
}

/// Every node, shuffled — batch order must not matter.
std::vector<NodeId> shuffled_nodes(const net::Topology& topo,
                                   std::uint64_t seed) {
  std::vector<NodeId> nodes(topo.size());
  for (NodeId u = 0; u < topo.size(); ++u) nodes[u] = u;
  sim::Rng rng(seed);
  for (std::size_t i = nodes.size(); i > 1; --i) {
    std::swap(nodes[i - 1],
              nodes[static_cast<std::size_t>(rng.uniform_int(0, i - 1))]);
  }
  return nodes;
}

TEST(FastFieldChunk, CapabilityFlagsMatchBackends) {
  const net::Topology topo = grid_topology(4);
  const FastEnvironment fast(topo, kTypes, sim::Rng(7));
  EXPECT_TRUE(fast.concurrent_type_batches());
  EXPECT_TRUE(fast.concurrent_intra_type_chunks());
  const Environment pinned(topo, kTypes, sim::Rng(7));
  EXPECT_TRUE(pinned.concurrent_type_batches());
  // The pinned backend keeps the base-class default (any future backend
  // inherits it too): no workload runs it with a type's batch split, so
  // it does not claim the capability.
  EXPECT_FALSE(pinned.concurrent_intra_type_chunks());
}

TEST(FastFieldChunk, SerialChunksAreBitwiseIdenticalToWholeBatch) {
  const net::Topology topo = grid_topology(12);
  FastEnvironment env(topo, kTypes, sim::Rng(99));
  const std::vector<NodeId> nodes = shuffled_nodes(topo, 5);
  for (const std::int64_t epoch : {0, 3, 250}) {
    env.advance_to(epoch);
    for (SensorType t = 0; t < kTypes; ++t) {
      std::vector<double> whole(nodes.size());
      env.readings(t, nodes, whole);
      for (const std::size_t chunk : {1, 3, 7, 16, 64}) {
        std::vector<double> split(nodes.size());
        for (std::size_t b = 0; b < nodes.size(); b += chunk) {
          const std::size_t len = std::min(chunk, nodes.size() - b);
          env.readings(t, std::span(nodes).subspan(b, len),
                       std::span(split).subspan(b, len));
        }
        EXPECT_EQ(whole, split)
            << "epoch " << epoch << " type " << t << " chunk " << chunk;
      }
    }
  }
}

TEST(FastFieldChunk, ConcurrentChunksAreBitwiseIdenticalToWholeBatch) {
  const net::Topology topo = grid_topology(12);
  FastEnvironment env(topo, kTypes, sim::Rng(4242));
  const std::vector<NodeId> nodes = shuffled_nodes(topo, 11);
  // The engine's precondition before chunking a batch: one serial reading
  // of the highest node id settles lazy adoption.
  const NodeId max_node = *std::max_element(nodes.begin(), nodes.end());
  sim::ThreadPool pool(4);
  constexpr std::size_t kChunk = 16;
  const std::size_t chunks = (nodes.size() + kChunk - 1) / kChunk;
  for (const std::int64_t epoch : {0, 40, 41, 500}) {
    env.advance_to(epoch);
    for (SensorType t = 0; t < kTypes; ++t) {
      (void)env.reading(max_node, t);
      std::vector<double> whole(nodes.size());
      env.readings(t, nodes, whole);
      std::vector<double> split(nodes.size());
      pool.parallel_for(chunks, [&](std::size_t k) {
        const std::size_t b = k * kChunk;
        const std::size_t len = std::min(kChunk, nodes.size() - b);
        env.readings(t, std::span(nodes).subspan(b, len),
                     std::span(split).subspan(b, len));
      });
      EXPECT_EQ(whole, split) << "epoch " << epoch << " type " << t;
    }
  }
}

TEST(FastFieldChunk, ScratchSurvivesAcrossEnvironments) {
  // Two live environments interleaved on one thread: each field reads its
  // own anchors, so switching between fields (and destroying one, then
  // creating another at the same seed) must never serve another field's
  // anchors.
  const net::Topology topo = grid_topology(8);
  const std::vector<NodeId> nodes = shuffled_nodes(topo, 3);
  std::vector<double> expect_a(nodes.size());
  std::vector<double> expect_b(nodes.size());
  {
    FastEnvironment a(topo, kTypes, sim::Rng(1));
    FastEnvironment b(topo, kTypes, sim::Rng(2));
    a.advance_to(10);
    b.advance_to(10);
    a.readings(0, nodes, expect_a);
    b.readings(0, nodes, expect_b);
    std::vector<double> again(nodes.size());
    a.readings(0, nodes, again);
    EXPECT_EQ(expect_a, again);
  }
  FastEnvironment c(topo, kTypes, sim::Rng(1));
  c.advance_to(10);
  std::vector<double> fresh(nodes.size());
  c.readings(0, nodes, fresh);
  EXPECT_EQ(expect_a, fresh);
  EXPECT_NE(expect_a, expect_b);  // different seeds really differ
}

}  // namespace
}  // namespace dirq::data
