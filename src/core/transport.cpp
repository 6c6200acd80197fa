#include "core/transport.hpp"

#include <algorithm>

namespace dirq::core {

void InstantTransport::unicast(NodeId from, NodeId to, const Message& msg) {
  if (to >= topo_.size() || !topo_.is_alive(to)) return;  // lost
  const auto nbrs = topo_.neighbors(from);
  if (!std::binary_search(nbrs.begin(), nbrs.end(), to)) return;  // out of range
  sink_.deliver(to, from, msg);
}

void InstantTransport::multicast(NodeId from, std::span<const NodeId> targets,
                                 const Message& msg) {
  // Copy both lists: delivery handlers may mutate the topology or reuse
  // the caller's buffer.
  const auto span = topo_.neighbors(from);
  const std::vector<NodeId> nbrs(span.begin(), span.end());
  const std::vector<NodeId> copy(targets.begin(), targets.end());
  for (NodeId to : copy) {
    if (to >= topo_.size() || !topo_.is_alive(to)) continue;
    if (!std::binary_search(nbrs.begin(), nbrs.end(), to)) continue;
    sink_.deliver(to, from, msg);
  }
}

void InstantTransport::broadcast(NodeId from, const Message& msg) {
  // Copy the neighbour list: delivery handlers may mutate the topology.
  const auto span = topo_.neighbors(from);
  const std::vector<NodeId> nbrs(span.begin(), span.end());
  for (NodeId v : nbrs) {
    if (!topo_.is_alive(v)) continue;
    sink_.deliver(v, from, msg);
  }
}

}  // namespace dirq::core
