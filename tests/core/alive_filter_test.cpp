// Node-death regression: the alive filter is centralised in the spanning
// tree's cached traversals, so a dead node must disappear consistently
// from (1) the cached BFS order, (2) theta-series averaging, and (3) the
// internal-node count — the three consumers that used to re-filter (or
// forget to filter) ad hoc.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/network.hpp"
#include "net/placement.hpp"
#include "net/spanning_tree.hpp"
#include "net/topology.hpp"

namespace dirq::core {
namespace {

net::Topology line_topology(std::size_t n) {
  std::vector<net::Node> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i].x = static_cast<double>(i);
    nodes[i].y = 0.0;
    if (i > 0) nodes[i].sensors = {kSensorTemperature};
  }
  return net::Topology(std::move(nodes), 1.5);
}

TEST(AliveFilter, DeadNodeLeavesCachedBfsOrderInternalCountAndThetaMean) {
  net::Topology topo = line_topology(6);  // 0-1-2-3-4-5 with range 1.5
  NetworkConfig cfg;
  cfg.mode = NetworkConfig::ThetaMode::Fixed;
  cfg.fixed_pct = 5.0;
  DirqNetwork net(topo, /*root=*/0, cfg);

  // (1) cached BFS order covers every node before the death...
  EXPECT_EQ(net.tree().bfs_order().size(), 6u);
  // (3) ...internal nodes: every non-leaf of the chain, i.e. 0..4.
  const std::size_t internal_before = net.tree().internal_node_count();
  EXPECT_EQ(internal_before, 5u);
  const double theta_before = net.mean_theta_pct(kSensorTemperature);
  EXPECT_NEAR(theta_before, 5.0, 1e-9);  // fixed theta: every node at 5 %

  // Kill a mid-line node and repair.
  topo.kill_node(4);
  net.handle_node_death(4, /*epoch=*/1);

  // (1) cached BFS order: the dead node is gone, order matches members.
  const std::vector<NodeId>& order = net.tree().bfs_order();
  EXPECT_EQ(order.size(), net.tree().size());
  EXPECT_EQ(std::find(order.begin(), order.end(), NodeId{4}), order.end());
  for (NodeId u : order) EXPECT_TRUE(topo.is_alive(u));

  // (2) theta averaging still sees only alive non-root members.
  EXPECT_NEAR(net.mean_theta_pct(kSensorTemperature), 5.0, 1e-9);

  // (3) internal count is consistent with the rebuilt tree.
  std::size_t expect_internal = 0;
  for (NodeId u : order) {
    if (!net.tree().children(u).empty()) ++expect_internal;
  }
  EXPECT_EQ(net.tree().internal_node_count(), expect_internal);
}

TEST(AliveFilter, ExplicitLinkTopologyNeverTraversesDeadNodes) {
  // Links below name a node that is dead on arrival; the explicit-link
  // constructor drops them, and the tree and connectivity traversals must
  // skip the node either way (this used to differ between is_connected,
  // BFS membership, and the per-caller filters).
  std::vector<net::Node> nodes(4);
  nodes[2].alive = false;  // dead on arrival, but named by links below
  for (auto& n : nodes) n.sensors = {kSensorTemperature};
  net::Topology topo(nodes, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});

  net::SpanningTree tree(topo, 0);
  EXPECT_FALSE(tree.in_tree(2));
  const std::vector<NodeId>& order = tree.bfs_order();
  EXPECT_EQ(std::find(order.begin(), order.end(), NodeId{2}), order.end());
  EXPECT_EQ(tree.size(), 3u);  // 0, 1, 3 (3 reached via the 0-3 link)
  // Alive subgraph 0-1, 0-3 is connected even though 2 is a dead bridge.
  EXPECT_TRUE(topo.is_connected());
}

TEST(AliveFilter, RebuildInvalidatesCachedOrderOnEveryMutation) {
  net::Topology topo = line_topology(5);
  net::SpanningTree tree(topo, 0);
  const std::vector<NodeId> before = tree.bfs_order();
  EXPECT_EQ(before.size(), 5u);

  topo.kill_node(2);
  tree.rebuild(topo);
  const std::vector<NodeId> after_death = tree.bfs_order();
  EXPECT_EQ(std::find(after_death.begin(), after_death.end(), NodeId{2}),
            after_death.end());

  net::Node revived;
  revived.id = 2;
  revived.x = 2.0;
  topo.add_node(revived);
  tree.rebuild(topo);
  const std::vector<NodeId> after_revival = tree.bfs_order();
  EXPECT_NE(std::find(after_revival.begin(), after_revival.end(), NodeId{2}),
            after_revival.end());
  EXPECT_EQ(after_revival.size(), 5u);
}

}  // namespace
}  // namespace dirq::core
