// BFS spanning tree over the alive subgraph — DirQ's communication tree.
//
// The paper sets the tree up once after deployment ("Once the nodes have
// been placed in the network, a spanning tree is set up", §4) and repairs
// it when the MAC layer reports node death/addition (§4.2). The BFS tree
// gives shortest hop paths from the root; ties are broken toward the
// lowest-id parent so rebuilds are deterministic.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "net/topology.hpp"
#include "sim/types.hpp"

namespace dirq::net {

class SpanningTree {
 public:
  SpanningTree() = default;

  /// Builds the BFS tree rooted at `root` over the alive subgraph.
  SpanningTree(const Topology& topo, NodeId root);

  /// Recomputes the whole tree against the (possibly mutated) topology.
  /// Deterministic, so unchanged regions keep their shape.
  void rebuild(const Topology& topo);

  [[nodiscard]] NodeId root() const noexcept { return root_; }

  /// Parent of `id`, or kNoNode for the root and for unreachable/dead nodes.
  [[nodiscard]] NodeId parent(NodeId id) const { return parent_.at(id); }

  /// Children of `id` in ascending id order.
  [[nodiscard]] std::span<const NodeId> children(NodeId id) const {
    return children_.at(id);
  }

  /// Hop distance from the root, or -1 if not in the tree.
  [[nodiscard]] int depth(NodeId id) const { return depth_.at(id); }

  /// True if the node is attached to the tree (root included).
  [[nodiscard]] bool in_tree(NodeId id) const {
    return id < depth_.size() && depth_[id] >= 0;
  }

  /// Number of nodes attached to the tree (root included).
  [[nodiscard]] std::size_t size() const noexcept { return member_count_; }

  /// Tree edges = size() - 1 (when non-empty).
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return member_count_ == 0 ? 0 : member_count_ - 1;
  }

  /// Maximum depth over tree members (0 for a lone root).
  [[nodiscard]] int max_depth() const noexcept { return max_depth_; }

  /// Maximum child count over tree members — the paper's k bound.
  [[nodiscard]] std::size_t max_branching() const;

  /// Members at exactly the given depth.
  [[nodiscard]] std::vector<NodeId> nodes_at_depth(int d) const;

  /// Leaves (tree members with no children).
  [[nodiscard]] std::vector<NodeId> leaves() const;

  /// All tree members in BFS (root-first) order. The order is cached at
  /// rebuild time (every mutation — repair, node death, re-parent — goes
  /// through rebuild(), which re-derives it), so this is allocation-free:
  /// Experiment::run and DirqNetwork::process_epoch call it every epoch.
  /// Only alive nodes are ever members (rebuild() filters on the alive
  /// flag, not just on adjacency reachability).
  [[nodiscard]] const std::vector<NodeId>& bfs_order() const noexcept {
    return order_;
  }

  /// Tree members with at least one child — the f_max denominator (Eq. 5).
  /// Cached at rebuild time alongside the BFS order.
  [[nodiscard]] std::size_t internal_node_count() const noexcept {
    return internal_count_;
  }

  /// Members of the subtree rooted at `id` (including `id`).
  [[nodiscard]] std::vector<NodeId> subtree(NodeId id) const;

  /// Partition of the non-root members into per-root-child subtrees:
  /// result[i] holds every member of the subtree rooted at the i-th root
  /// child (children(root) order), each list in the cached BFS order's
  /// relative order — so reversing a list walks that subtree leaves-first
  /// exactly as the reversed global order does. The subtrees are disjoint
  /// and their union plus the root is the member set; all DirQ update
  /// traffic is up-tree unicast, so each list is an independently
  /// processable region whose only external edge points at the root (the
  /// parallel epoch engine's shards).
  [[nodiscard]] std::vector<std::vector<NodeId>> subtree_partition() const;

 private:
  NodeId root_ = kNoNode;
  std::vector<NodeId> parent_;
  std::vector<std::vector<NodeId>> children_;
  std::vector<int> depth_;
  std::vector<NodeId> order_;  // cached BFS (root-first) order
  std::size_t member_count_ = 0;
  std::size_t internal_count_ = 0;
  int max_depth_ = 0;
};

}  // namespace dirq::net
