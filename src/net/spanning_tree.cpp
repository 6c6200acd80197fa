#include "net/spanning_tree.hpp"

#include <algorithm>
#include <stdexcept>

namespace dirq::net {

SpanningTree::SpanningTree(const Topology& topo, NodeId root) : root_(root) {
  if (root >= topo.size() || !topo.is_alive(root)) {
    throw std::invalid_argument("SpanningTree: root must be an alive node");
  }
  rebuild(topo);
}

void SpanningTree::rebuild(const Topology& topo) {
  const std::size_t n = topo.size();
  parent_.assign(n, kNoNode);
  children_.assign(n, {});
  depth_.assign(n, -1);
  order_.clear();
  member_count_ = 0;
  internal_count_ = 0;
  max_depth_ = 0;
  if (root_ >= n || !topo.is_alive(root_)) return;

  // The cached order_ doubles as the BFS frontier: nodes are appended on
  // discovery and visited in append order, which is exactly the root-first
  // order bfs_order() exposes.
  order_.reserve(topo.alive_count());
  order_.push_back(root_);
  depth_[root_] = 0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const NodeId u = order_[i];
    max_depth_ = std::max(max_depth_, depth_[u]);
    // Topology adjacency lists are sorted ascending, so children adopt the
    // lowest-id reachable parent first: deterministic rebuilds. The alive
    // filter is centralised here: a dead node never becomes a member.
    for (NodeId v : topo.neighbors(u)) {
      if (depth_[v] >= 0 || !topo.is_alive(v)) continue;
      depth_[v] = depth_[u] + 1;
      parent_[v] = u;
      children_[u].push_back(v);
      order_.push_back(v);
    }
    if (!children_[u].empty()) ++internal_count_;
  }
  member_count_ = order_.size();
}

std::size_t SpanningTree::max_branching() const {
  std::size_t best = 0;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (depth_[i] >= 0) best = std::max(best, children_[i].size());
  }
  return best;
}

std::vector<NodeId> SpanningTree::nodes_at_depth(int d) const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < depth_.size(); ++i) {
    if (depth_[i] == d) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

std::vector<NodeId> SpanningTree::leaves() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < depth_.size(); ++i) {
    if (depth_[i] >= 0 && children_[i].empty()) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

std::vector<std::vector<NodeId>> SpanningTree::subtree_partition() const {
  std::vector<std::vector<NodeId>> out;
  if (member_count_ == 0) return out;
  const std::span<const NodeId> top = children(root_);
  out.resize(top.size());
  // shard index per member; the root itself and non-members stay unmapped.
  std::vector<std::size_t> shard_of(depth_.size(), top.size());
  for (std::size_t i = 0; i < top.size(); ++i) shard_of[top[i]] = i;
  for (NodeId u : order_) {
    if (u == root_) continue;
    const std::size_t s =
        parent_[u] == root_ ? shard_of[u] : shard_of[parent_[u]];
    shard_of[u] = s;
    out[s].push_back(u);
  }
  return out;
}

std::vector<NodeId> SpanningTree::subtree(NodeId id) const {
  std::vector<NodeId> out;
  if (!in_tree(id)) return out;
  out.push_back(id);
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (NodeId c : children_[out[i]]) out.push_back(c);
  }
  return out;
}

}  // namespace dirq::net
