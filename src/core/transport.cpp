#include "core/transport.hpp"

#include <algorithm>

namespace dirq::core {

void InstantTransport::charge_tx(CostLedger& ledger, const Message& msg,
                                 CostUnits n) {
  if (std::holds_alternative<QueryMessage>(msg) ||
      std::holds_alternative<MultiQueryMessage>(msg)) {
    ledger.query_tx += n;
  } else if (std::holds_alternative<UpdateMessage>(msg)) {
    ledger.update_tx += n;
  } else {
    ledger.control_tx += n;  // EHr floods and location announcements
  }
}

void InstantTransport::charge_rx(CostLedger& ledger, const Message& msg,
                                 CostUnits n) {
  if (std::holds_alternative<QueryMessage>(msg) ||
      std::holds_alternative<MultiQueryMessage>(msg)) {
    ledger.query_rx += n;
  } else if (std::holds_alternative<UpdateMessage>(msg)) {
    ledger.update_rx += n;
  } else {
    ledger.control_rx += n;
  }
}

void InstantTransport::unicast(NodeId from, NodeId to, const Message& msg) {
  charge_tx(ledger_, msg);
  if (to >= topo_.size() || !topo_.is_alive(to)) return;  // lost
  const auto nbrs = topo_.neighbors(from);
  if (!std::binary_search(nbrs.begin(), nbrs.end(), to)) return;  // out of range
  charge_rx(ledger_, msg);
  sink_.deliver(to, from, msg);
}

void InstantTransport::multicast(NodeId from, std::span<const NodeId> targets,
                                 const Message& msg) {
  if (targets.empty()) return;
  charge_tx(ledger_, msg);
  // Copy both lists: delivery handlers may mutate the topology or reuse
  // the caller's buffer.
  const auto span = topo_.neighbors(from);
  const std::vector<NodeId> nbrs(span.begin(), span.end());
  const std::vector<NodeId> copy(targets.begin(), targets.end());
  for (NodeId to : copy) {
    if (to >= topo_.size() || !topo_.is_alive(to)) continue;
    if (!std::binary_search(nbrs.begin(), nbrs.end(), to)) continue;
    charge_rx(ledger_, msg);
    sink_.deliver(to, from, msg);
  }
}

void InstantTransport::broadcast(NodeId from, const Message& msg) {
  charge_tx(ledger_, msg);
  // Copy the neighbour list: delivery handlers may mutate the topology.
  const auto span = topo_.neighbors(from);
  const std::vector<NodeId> nbrs(span.begin(), span.end());
  for (NodeId v : nbrs) {
    if (!topo_.is_alive(v)) continue;
    charge_rx(ledger_, msg);
    sink_.deliver(v, from, msg);
  }
}

}  // namespace dirq::core
