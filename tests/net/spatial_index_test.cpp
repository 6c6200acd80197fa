// Grid-indexed link construction vs the O(n^2) brute-force path.
//
// Topology::rebuild_links and add_node query the uniform-grid SpatialIndex
// instead of scanning all pairs; because candidate sets are supersets and
// the exact distance filter is shared, the resulting adjacency must be
// *identical* — not just isomorphic — to the all-pairs reference
// brute_force_adjacency() (tests/support/brute_force_adjacency.hpp).
// This suite pins that equivalence across random placements and the edge
// cases that break naive grids: nodes exactly at radio_range, co-located
// nodes, dead nodes, revivals redeployed outside the original bounds.
#include "net/spatial_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "net/placement.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"
#include "support/brute_force_adjacency.hpp"

namespace dirq::net {
namespace {

std::vector<Node> random_nodes(std::size_t n, double side, sim::Rng& rng) {
  std::vector<Node> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i].x = rng.uniform(0.0, side);
    nodes[i].y = rng.uniform(0.0, side);
    nodes[i].sensors = {kSensorTemperature};
  }
  return nodes;
}

void expect_adjacency_matches(const Topology& topo) {
  const auto brute = brute_force_adjacency(topo);
  ASSERT_EQ(brute.size(), topo.size());
  std::size_t links = 0;
  for (NodeId u = 0; u < topo.size(); ++u) {
    const auto got = topo.neighbors(u);
    ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), brute[u])
        << "adjacency of node " << u;
    links += brute[u].size();
  }
  EXPECT_EQ(topo.link_count(), links / 2);
}

TEST(SpatialIndexEquivalence, RandomPlacementsAcrossSeedsAndDensities) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1337ull}) {
    for (const auto& [n, side, range] :
         {std::tuple{30u, 100.0, 22.0}, std::tuple{200u, 100.0, 9.0},
          std::tuple{400u, 250.0, 22.0}, std::tuple{100u, 10.0, 1.0}}) {
      sim::Rng rng(seed);
      Topology topo(random_nodes(n, side, rng), range);
      expect_adjacency_matches(topo);
    }
  }
}

TEST(SpatialIndexEquivalence, NodesExactlyAtRadioRange) {
  // Distance == radio_range must link (<=, not <) through the grid path
  // exactly as it does through the brute-force path.
  std::vector<Node> nodes(4);
  nodes[0] = {};                 // (0, 0)
  nodes[1].x = 5.0;              // exactly at range
  nodes[2].x = 5.0 + 5.0;       // exactly at range from 1
  nodes[3].x = 5.000001;         // just beyond range from 0
  Topology topo(std::move(nodes), 5.0);
  expect_adjacency_matches(topo);
  EXPECT_TRUE(std::ranges::count(topo.neighbors(0), NodeId{1}) == 1);
  EXPECT_TRUE(std::ranges::count(topo.neighbors(1), NodeId{2}) == 1);
  EXPECT_TRUE(std::ranges::count(topo.neighbors(3), NodeId{0}) == 0);
}

TEST(SpatialIndexEquivalence, CoLocatedNodes) {
  std::vector<Node> nodes(5);
  for (auto& n : nodes) {
    n.x = 3.0;
    n.y = 4.0;
  }
  nodes[4].x = 100.0;  // far away
  Topology topo(std::move(nodes), 2.0);
  expect_adjacency_matches(topo);
  EXPECT_EQ(topo.neighbors(0).size(), 3u);  // the other co-located three
  EXPECT_TRUE(topo.neighbors(4).empty());
}

TEST(SpatialIndexEquivalence, DeadNodesExcludedEverywhere) {
  sim::Rng rng(99);
  Topology topo(random_nodes(60, 50.0, rng), 10.0);
  topo.kill_node(3);
  topo.kill_node(17);
  topo.kill_node(59);
  expect_adjacency_matches(topo);  // brute force also skips dead nodes
  EXPECT_TRUE(topo.neighbors(17).empty());
}

TEST(SpatialIndexEquivalence, AddNodeMatchesBruteForce) {
  sim::Rng rng(5);
  Topology topo(random_nodes(50, 40.0, rng), 8.0);
  // Brand-new node inside the deployment.
  Node extra;
  extra.x = 20.0;
  extra.y = 20.0;
  topo.add_node(extra);
  expect_adjacency_matches(topo);
  // Brand-new node outside the original grid bounds (edge-cell clamping).
  Node outside;
  outside.x = 200.0;
  outside.y = -50.0;
  topo.add_node(outside);
  expect_adjacency_matches(topo);
}

TEST(SpatialIndexEquivalence, RevivalRedeployedElsewhere) {
  sim::Rng rng(11);
  Topology topo(random_nodes(50, 40.0, rng), 8.0);
  topo.kill_node(10);
  Node revived;
  revived.id = 10;
  revived.x = 39.5;  // different cell from the original placement
  revived.y = 0.5;
  topo.add_node(revived);
  expect_adjacency_matches(topo);
  // And a revival clamped outside the original bounds.
  topo.kill_node(20);
  Node far;
  far.id = 20;
  far.x = 400.0;
  far.y = 400.0;
  topo.add_node(far);
  expect_adjacency_matches(topo);
  EXPECT_TRUE(topo.neighbors(20).empty());
}

TEST(SpatialIndex, CandidatesAreASuperset) {
  sim::Rng rng(3);
  const std::size_t n = 120;
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(rng.uniform(0.0, 60.0));
    ys.push_back(rng.uniform(0.0, 60.0));
  }
  SpatialIndex index;
  index.build(xs, ys, 7.5);
  std::vector<NodeId> cand;
  for (std::size_t i = 0; i < n; ++i) {
    cand.clear();
    index.candidates(xs[i], ys[i], cand);
    for (std::size_t j = 0; j < n; ++j) {
      const double dx = xs[i] - xs[j];
      const double dy = ys[i] - ys[j];
      if (dx * dx + dy * dy <= 7.5 * 7.5) {
        EXPECT_NE(std::find(cand.begin(), cand.end(), static_cast<NodeId>(j)),
                  cand.end())
            << "true neighbour " << j << " of " << i << " missing";
      }
    }
  }
}

TEST(SpatialIndex, ZeroRadiusDegenerateGrid) {
  // The explicit-link Topology constructor indexes with radius 0 (revived
  // nodes re-link only when co-located). The grid must stay well-formed.
  std::vector<double> xs{0.0, 1.0, 1.0};
  std::vector<double> ys{0.0, 2.0, 2.0};
  SpatialIndex index;
  index.build(xs, ys, 0.0);
  std::vector<NodeId> cand;
  index.candidates(1.0, 2.0, cand);
  EXPECT_NE(std::find(cand.begin(), cand.end(), NodeId{1}), cand.end());
  EXPECT_NE(std::find(cand.begin(), cand.end(), NodeId{2}), cand.end());
}

TEST(SpatialIndex, ScaledPlacementStillSatisfiesPaperBoundsAtFifty) {
  // <= 50 nodes: scaled_placement is exactly the paper's config.
  const RandomPlacementConfig cfg = scaled_placement(50);
  EXPECT_DOUBLE_EQ(cfg.area_side, 100.0);
  EXPECT_DOUBLE_EQ(cfg.radio_range, 22.0);
  EXPECT_EQ(cfg.max_children, 8u);
  EXPECT_EQ(cfg.max_depth, 10u);
  // Beyond 50: density preserved, bounds lifted.
  const RandomPlacementConfig big = scaled_placement(500);
  EXPECT_NEAR(big.area_side, 100.0 * std::sqrt(10.0), 1e-9);
  EXPECT_GT(big.radio_range, 22.0);
  EXPECT_EQ(big.max_children, 500u);
  // Non-geometry knobs of a caller-supplied base survive scaling (and at
  // <= 50 the base's geometry is untouched too — old node_count-only
  // substitution semantics).
  RandomPlacementConfig base;
  base.sensor_type_count = 2;
  base.sensor_probability = 0.9;
  base.radio_range = 30.0;
  const RandomPlacementConfig scaled = scaled_placement(500, base);
  EXPECT_EQ(scaled.sensor_type_count, 2u);
  EXPECT_DOUBLE_EQ(scaled.sensor_probability, 0.9);
  EXPECT_GT(scaled.radio_range, 22.0);  // geometry overwritten above 50
  const RandomPlacementConfig small = scaled_placement(40, base);
  EXPECT_EQ(small.node_count, 40u);
  EXPECT_DOUBLE_EQ(small.radio_range, 30.0);  // geometry kept at <= 50
  EXPECT_EQ(small.sensor_type_count, 2u);
  sim::Rng rng(42);
  const Topology topo = random_connected(big, rng);
  EXPECT_EQ(topo.size(), 500u);
  EXPECT_TRUE(topo.is_connected());
}

}  // namespace
}  // namespace dirq::net
