// Reference O(n^2) unit-disk adjacency: the link construction Topology
// used before its spatial index, kept as the oracle for the
// grid-equivalence tests (the grid-indexed rebuild must produce exactly
// these lists) and as the brute-force arm of bench_micro_kernel's
// topology build. Reads only the public Topology API.
#pragma once

#include <algorithm>
#include <vector>

#include "net/topology.hpp"

namespace dirq::net {

/// Sorted neighbour lists of every node slot: two alive nodes are linked
/// iff their distance is <= the topology's radio range; dead slots get
/// empty lists.
inline std::vector<std::vector<NodeId>> brute_force_adjacency(
    const Topology& topo) {
  const std::size_t n = topo.size();
  std::vector<std::vector<NodeId>> adj(n);
  for (NodeId i = 0; i < n; ++i) {
    if (!topo.is_alive(i)) continue;
    for (NodeId j = i + 1; j < n; ++j) {
      if (!topo.is_alive(j)) continue;
      if (topo.distance(i, j) <= topo.radio_range()) {
        adj[i].insert(std::lower_bound(adj[i].begin(), adj[i].end(), j), j);
        adj[j].insert(std::lower_bound(adj[j].begin(), adj[j].end(), i), i);
      }
    }
  }
  return adj;
}

}  // namespace dirq::net
