#include "core/transport.hpp"

#include <algorithm>
#include <stdexcept>

namespace dirq::core {

void InstantTransport::unicast(NodeId from, NodeId to, const Message& msg) {
  if (to >= topo_.size() || !topo_.is_alive(to)) return;  // lost
  const auto nbrs = topo_.neighbors(from);
  if (!std::binary_search(nbrs.begin(), nbrs.end(), to)) return;  // out of range
  sink_.deliver(to, from, msg);
}

void InstantTransport::multicast(NodeId from, std::span<const NodeId> targets,
                                 const Message& msg) {
  // Both lists are read in place: the delivery contract (transport.hpp)
  // keeps them valid, and deliver_in_place checks it.
  const auto nbrs = topo_.neighbors(from);
  for (NodeId to : targets) {
    if (to >= topo_.size() || !topo_.is_alive(to)) continue;
    if (!std::binary_search(nbrs.begin(), nbrs.end(), to)) continue;
    deliver_in_place(to, from, msg);
  }
}

void InstantTransport::broadcast(NodeId from, const Message& msg) {
  for (NodeId v : topo_.neighbors(from)) {
    if (!topo_.is_alive(v)) continue;
    deliver_in_place(v, from, msg);
  }
}

void InstantTransport::deliver_in_place(NodeId to, NodeId from,
                                        const Message& msg) {
  const std::size_t size = topo_.size();
  const std::size_t alive = topo_.alive_count();
  sink_.deliver(to, from, msg);
  if (topo_.size() != size || topo_.alive_count() != alive) {
    throw std::logic_error(
        "InstantTransport: a delivery added or killed a node while a "
        "multicast or broadcast was reading the topology");
  }
}

}  // namespace dirq::core
