// BFS spanning tree: structure, determinism, rebuild-on-churn, queries.
#include "net/spanning_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "net/placement.hpp"
#include "sim/rng.hpp"

namespace dirq::net {
namespace {

std::vector<Node> line_nodes(std::size_t n) {
  std::vector<Node> nodes(n);
  for (std::size_t i = 0; i < n; ++i) nodes[i].x = static_cast<double>(i);
  return nodes;
}

TEST(SpanningTree, LineTopologyIsAChain) {
  Topology t(line_nodes(5), 1.1);
  SpanningTree tree(t, 0);
  EXPECT_EQ(tree.size(), 5u);
  EXPECT_EQ(tree.max_depth(), 4);
  EXPECT_EQ(tree.parent(0), kNoNode);
  for (NodeId i = 1; i < 5; ++i) EXPECT_EQ(tree.parent(i), i - 1);
  EXPECT_EQ(tree.edge_count(), 4u);
}

TEST(SpanningTree, RootMustBeAlive) {
  Topology t(line_nodes(3), 1.1);
  t.kill_node(0);
  EXPECT_THROW(SpanningTree(t, 0), std::invalid_argument);
  EXPECT_THROW(SpanningTree(t, 99), std::invalid_argument);
}

TEST(SpanningTree, KnaryTreeShapeIsExact) {
  Topology t = knary_tree(3, 2);
  SpanningTree tree(t, 0);
  EXPECT_EQ(tree.size(), 13u);
  EXPECT_EQ(tree.max_depth(), 2);
  EXPECT_EQ(tree.max_branching(), 3u);
  EXPECT_EQ(tree.children(0).size(), 3u);
  EXPECT_EQ(tree.leaves().size(), 9u);
  EXPECT_EQ(tree.nodes_at_depth(1).size(), 3u);
}

TEST(SpanningTree, DepthAndInTree) {
  Topology t = knary_tree(2, 3);
  SpanningTree tree(t, 0);
  EXPECT_EQ(tree.depth(0), 0);
  EXPECT_EQ(tree.depth(1), 1);
  EXPECT_EQ(tree.depth(3), 2);
  EXPECT_EQ(tree.depth(7), 3);
  EXPECT_TRUE(tree.in_tree(14));
  EXPECT_FALSE(tree.in_tree(99));
}

/// The root path of `id` (root first) by parent walk; empty off the tree.
std::vector<NodeId> path_from_root(const SpanningTree& tree, NodeId id) {
  std::vector<NodeId> path;
  if (!tree.in_tree(id)) return path;
  for (NodeId u = id; u != kNoNode; u = tree.parent(u)) path.push_back(u);
  std::reverse(path.begin(), path.end());
  return path;
}

TEST(SpanningTree, PathFromRoot) {
  Topology t(line_nodes(5), 1.1);
  SpanningTree tree(t, 0);
  EXPECT_EQ(path_from_root(tree, 3), (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(path_from_root(tree, 0), (std::vector<NodeId>{0}));
}

TEST(SpanningTree, PathOfDetachedNodeIsEmpty) {
  Topology t(line_nodes(5), 1.1);
  t.kill_node(2);
  SpanningTree tree(t, 0);
  EXPECT_TRUE(path_from_root(tree, 4).empty());
  EXPECT_EQ(tree.parent(4), kNoNode);
  EXPECT_FALSE(tree.in_tree(4));
  EXPECT_EQ(tree.size(), 2u);  // 0, 1
}

TEST(SpanningTree, RebuildAfterDeathReroutes) {
  // Diamond: 0-1, 0-2, 1-3, 2-3. Kill 1: 3 must re-parent to 2.
  std::vector<Node> nodes(4);
  Topology t(nodes, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  SpanningTree tree(t, 0);
  EXPECT_EQ(tree.parent(3), 1u);  // lowest-id parent wins
  t.kill_node(1);
  tree.rebuild(t);
  EXPECT_EQ(tree.parent(3), 2u);
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.depth(3), 2);
}

TEST(SpanningTree, DeterministicTieBreakTowardLowestId) {
  // Node 3 reachable through both 1 and 2 at equal depth.
  std::vector<Node> nodes(4);
  Topology t(nodes, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  SpanningTree a(t, 0);
  SpanningTree b(t, 0);
  EXPECT_EQ(a.parent(3), 1u);
  EXPECT_EQ(b.parent(3), 1u);
}

TEST(SpanningTree, BfsOrderIsTopDown) {
  Topology t = knary_tree(2, 3);
  SpanningTree tree(t, 0);
  const auto order = tree.bfs_order();
  ASSERT_EQ(order.size(), 15u);
  EXPECT_EQ(order.front(), 0u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(tree.depth(order[i - 1]), tree.depth(order[i]) + 1);
  }
  // Every node appears after its parent.
  std::vector<std::size_t> pos(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (NodeId u = 1; u < 15; ++u) EXPECT_LT(pos[tree.parent(u)], pos[u]);
}

TEST(SpanningTree, SubtreeMembership) {
  Topology t = knary_tree(2, 2);  // 7 nodes
  SpanningTree tree(t, 0);
  const auto sub = tree.subtree(1);
  EXPECT_EQ(sub, (std::vector<NodeId>{1, 3, 4}));
  EXPECT_EQ(tree.subtree(0).size(), 7u);
  EXPECT_EQ(tree.subtree(6), (std::vector<NodeId>{6}));
}

TEST(SpanningTree, LeavesOfChain) {
  Topology t(line_nodes(4), 1.1);
  SpanningTree tree(t, 0);
  EXPECT_EQ(tree.leaves(), (std::vector<NodeId>{3}));
}

TEST(SpanningTree, SubtreePartitionMatchesPerChildSubtrees) {
  Topology t = knary_tree(3, 2);  // 13 nodes, 3 root children
  SpanningTree tree(t, 0);
  const auto parts = tree.subtree_partition();
  const auto kids = tree.children(0);
  ASSERT_EQ(parts.size(), kids.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    std::set<NodeId> part(parts[i].begin(), parts[i].end());
    const auto sub = tree.subtree(kids[i]);
    EXPECT_EQ(part, std::set<NodeId>(sub.begin(), sub.end()));
  }
}

TEST(SpanningTree, SubtreePartitionListsFollowBfsOrder) {
  sim::Rng rng(23);
  RandomPlacementConfig cfg;
  Topology t = random_connected(cfg, rng);
  SpanningTree tree(t, 0);
  const auto parts = tree.subtree_partition();

  // Each list is a subsequence of the cached BFS order (reversing a list
  // therefore walks that subtree leaves-first, like the global walk).
  std::vector<std::size_t> pos(t.size());
  const auto& order = tree.bfs_order();
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  std::set<NodeId> seen;
  for (const auto& part : parts) {
    for (std::size_t j = 1; j < part.size(); ++j) {
      EXPECT_LT(pos[part[j - 1]], pos[part[j]]);
    }
    for (NodeId u : part) EXPECT_TRUE(seen.insert(u).second);  // disjoint
  }
  // Union plus the root is exactly the member set.
  EXPECT_EQ(seen.size() + 1, tree.size());
  EXPECT_FALSE(seen.count(0));
  for (NodeId u : order) {
    if (u != 0) {
      EXPECT_TRUE(seen.count(u));
    }
  }
}

TEST(SpanningTree, SubtreePartitionOfLoneRootIsEmpty) {
  Topology t(line_nodes(1), 1.1);
  SpanningTree tree(t, 0);
  EXPECT_TRUE(tree.subtree_partition().empty());
}

TEST(SpanningTree, MaxBranchingOnRandomTopologyWithinBound) {
  sim::Rng rng(17);
  RandomPlacementConfig cfg;
  Topology t = random_connected(cfg, rng);
  SpanningTree tree(t, 0);
  EXPECT_EQ(tree.size(), cfg.node_count);
  EXPECT_LE(tree.max_branching(), cfg.max_children);
  EXPECT_LE(static_cast<std::size_t>(tree.max_depth()), cfg.max_depth);
}

}  // namespace
}  // namespace dirq::net
