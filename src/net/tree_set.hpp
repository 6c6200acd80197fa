// N spanning trees over one topology — the multi-sink query plane's
// routing substrate.
//
// The paper deploys a single sink; production means many concurrent
// queriers, each with its own BFS tree over the same shared node field
// (Yggdrasil's MiRAge multi-root aggregation is the exemplar — see
// SNIPPETS.md "Multi Root Aggregation"). A TreeSet owns one SpanningTree
// per sink, keyed by a dense TreeId, and repairs them on churn while
// rebuilding only the trees the change could actually have touched: a
// tree in a different connected component keeps its cached structure.
#pragma once

#include <cstddef>
#include <vector>

#include "net/spanning_tree.hpp"
#include "net/topology.hpp"
#include "sim/types.hpp"

namespace dirq::net {

class TreeSet {
 public:
  /// Builds one BFS tree per root over the alive subgraph. Throws
  /// std::invalid_argument on an empty root list, a duplicate root, an id
  /// outside the topology, or a dead root (the same checks
  /// ExperimentConfig::validate applies up front, enforced again here so
  /// direct users get the same contract).
  TreeSet(const Topology& topo, std::vector<NodeId> roots);

  [[nodiscard]] std::size_t count() const noexcept { return trees_.size(); }
  [[nodiscard]] const std::vector<NodeId>& roots() const noexcept {
    return roots_;
  }
  [[nodiscard]] NodeId root(TreeId t) const { return roots_.at(t); }
  [[nodiscard]] const SpanningTree& tree(TreeId t) const {
    return trees_.at(t);
  }

  /// Repairs the set after a topology mutation at `changed` (death,
  /// addition, revival). Only affected trees rebuild: a tree is affected
  /// when the changed node is one of its members, or is alive with an
  /// alive neighbour in the tree (it could attach and shorten paths).
  /// Returns the TreeIds rebuilt, ascending — the churn-locality tests
  /// and the network's per-tree reconciliation both consume this.
  std::vector<TreeId> rebuild_affected(const Topology& topo, NodeId changed);

 private:
  std::vector<NodeId> roots_;
  std::vector<SpanningTree> trees_;
};

/// Picks `count` sink positions spread across the alive field: the lowest
/// alive id first (node 0 — the paper's root — in every standard
/// placement), then greedy farthest-point selection (each next root
/// maximises its minimum Euclidean distance to the roots chosen so far,
/// ties toward the lowest id). Deterministic, RNG-free; `--sinks 1`
/// therefore reproduces the paper's single-root deployment exactly.
/// Throws std::invalid_argument when count is 0 or exceeds the alive
/// population.
std::vector<NodeId> spread_roots(const Topology& topo, std::size_t count);

}  // namespace dirq::net
