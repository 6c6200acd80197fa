#include "net/tree_set.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace dirq::net {

TreeSet::TreeSet(const Topology& topo, std::vector<NodeId> roots)
    : roots_(std::move(roots)) {
  if (roots_.empty()) {
    throw std::invalid_argument("TreeSet: at least one root is required");
  }
  std::vector<NodeId> sorted = roots_;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::invalid_argument("TreeSet: duplicate root id");
  }
  trees_.reserve(roots_.size());
  for (NodeId r : roots_) {
    if (r >= topo.size()) {
      throw std::invalid_argument("TreeSet: root " + std::to_string(r) +
                                  " is outside the topology");
    }
    if (!topo.is_alive(r)) {
      throw std::invalid_argument("TreeSet: root " + std::to_string(r) +
                                  " is dead");
    }
    trees_.emplace_back(topo, r);
  }
}

std::vector<TreeId> TreeSet::rebuild_affected(const Topology& topo,
                                              NodeId changed) {
  std::vector<TreeId> rebuilt;
  for (TreeId t = 0; t < trees_.size(); ++t) {
    bool affected = trees_[t].in_tree(changed);
    if (!affected && changed < topo.size() && topo.is_alive(changed)) {
      // Not a member yet: it can only alter this tree by attaching, which
      // needs an alive neighbour already in the tree.
      for (NodeId v : topo.neighbors(changed)) {
        if (topo.is_alive(v) && trees_[t].in_tree(v)) {
          affected = true;
          break;
        }
      }
    }
    if (!affected) continue;
    trees_[t].rebuild(topo);
    rebuilt.push_back(t);
  }
  return rebuilt;
}

std::vector<NodeId> spread_roots(const Topology& topo, std::size_t count) {
  if (count == 0) {
    throw std::invalid_argument("spread_roots: count must be >= 1");
  }
  if (count > topo.alive_count()) {
    throw std::invalid_argument(
        "spread_roots: count exceeds the alive population");
  }
  std::vector<NodeId> roots;
  roots.reserve(count);
  // First root: the lowest alive id — node 0 in every standard placement,
  // which is the paper's root (--sinks 1 equivalence).
  for (NodeId u = 0; u < topo.size(); ++u) {
    if (topo.is_alive(u)) {
      roots.push_back(u);
      break;
    }
  }
  // min_dist[u]: distance from u to its nearest chosen root so far.
  std::vector<double> min_dist(topo.size(),
                               std::numeric_limits<double>::infinity());
  while (roots.size() < count) {
    const NodeId last = roots.back();
    NodeId best = kNoNode;
    double best_dist = -1.0;
    for (NodeId u = 0; u < topo.size(); ++u) {
      if (!topo.is_alive(u)) continue;
      min_dist[u] = std::min(min_dist[u], topo.distance(u, last));
      if (min_dist[u] > best_dist &&
          std::find(roots.begin(), roots.end(), u) == roots.end()) {
        best_dist = min_dist[u];
        best = u;
      }
    }
    roots.push_back(best);
  }
  return roots;
}

}  // namespace dirq::net
