// Transport abstraction under the DirQ protocol logic.
//
// DirQ's node logic is transport-agnostic: it emits unicasts (to its tree
// parent or children) and link-layer broadcasts (the hourly EHr estimate),
// and consumes delivered messages. A transport only routes: it decides who
// hears a frame and hands each reception to its MessageSink. The network
// (DirqNetwork) books every transmission at send and every reception in
// deliver(), under the unit-cost model of paper §5 (1 tx + 1 rx per
// unicast, 1 tx + one rx per addressed alive neighbour per multicast,
// 1 tx + deg rx per broadcast). Two implementations exist:
//
//   InstantTransport — synchronous delivery on the topology graph. This is
//     the fast path used by the 20 000-epoch figure sweeps; it preserves
//     the paper's cost model exactly while skipping MAC latency.
//
//   LmacTransport (lmac_transport.hpp) — rides the src/mac LMAC instance
//     over the event scheduler: slot-synchronous delivery, real timeout-
//     based neighbour-death detection. Used by integration tests and the
//     topology-churn example.
//
// The epoch engine shards its walk only on the network's built-in
// InstantTransport, which its pool tasks send through like the caller;
// any other transport runs the walk on the caller (DirqNetwork::set_threads).
#pragma once

#include <span>

#include "core/messages.hpp"
#include "net/topology.hpp"
#include "sim/types.hpp"

namespace dirq::core {

/// Receives messages from a transport. Implemented by DirqNetwork.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual void deliver(NodeId to, NodeId from, const Message& msg) = 0;
};

/// Per-kind energy ledger (1 unit per transmit, 1 per receive; paper §5).
struct CostLedger {
  CostUnits query_tx = 0, query_rx = 0;
  CostUnits update_tx = 0, update_rx = 0;
  CostUnits control_tx = 0, control_rx = 0;  // EHr dissemination

  [[nodiscard]] CostUnits query_cost() const noexcept { return query_tx + query_rx; }
  [[nodiscard]] CostUnits update_cost() const noexcept { return update_tx + update_rx; }
  [[nodiscard]] CostUnits control_cost() const noexcept { return control_tx + control_rx; }
  [[nodiscard]] CostUnits total() const noexcept {
    return query_cost() + update_cost() + control_cost();
  }

  /// The counter one transmission (rx false) or reception of `msg` lands
  /// in: Query and MultiQuery are query traffic, Update is update traffic,
  /// everything else (EHr floods, location announcements) is control.
  [[nodiscard]] CostUnits& counter(const Message& msg, bool rx) noexcept {
    if (std::holds_alternative<QueryMessage>(msg) ||
        std::holds_alternative<MultiQueryMessage>(msg)) {
      return rx ? query_rx : query_tx;
    }
    if (std::holds_alternative<UpdateMessage>(msg)) {
      return rx ? update_rx : update_tx;
    }
    return rx ? control_rx : control_tx;
  }

  CostLedger& operator+=(const CostLedger& o) noexcept {
    query_tx += o.query_tx;
    query_rx += o.query_rx;
    update_tx += o.update_tx;
    update_rx += o.update_rx;
    control_tx += o.control_tx;
    control_rx += o.control_rx;
    return *this;
  }
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends to a one-hop neighbour. A dead or out-of-range recipient hears
  /// nothing.
  virtual void unicast(NodeId from, NodeId to, const Message& msg) = 0;

  /// One transmission addressed to a subset of neighbours; each addressed
  /// alive neighbour receives. This matches the paper's Eq. (6)
  /// accounting, where a forwarding node pays a single transmission no
  /// matter how many children it targets. An empty target set sends
  /// nothing.
  virtual void multicast(NodeId from, std::span<const NodeId> targets,
                         const Message& msg) = 0;

  /// Link-layer broadcast to all alive one-hop neighbours.
  virtual void broadcast(NodeId from, const Message& msg) = 0;

  /// The ledger the network books this transport's traffic in; the
  /// transport itself never writes it. Drivers swapping transports mid-run
  /// carry accumulated costs over through mutable_costs().
  [[nodiscard]] const CostLedger& costs() const noexcept { return ledger_; }
  [[nodiscard]] CostLedger& mutable_costs() noexcept { return ledger_; }

 private:
  CostLedger ledger_;
};

/// Synchronous delivery over the topology graph.
///
/// Delivery contract: a multicast or broadcast reads the caller's target
/// list and the sender's neighbour span in place while it delivers, so a
/// sink must not add or kill a node inside deliver(), and the caller's
/// target buffer must stay untouched until the call returns (DirqNode
/// throws std::logic_error rather than forward a query that reaches a node
/// still forwarding one, which only a forwarding cycle can do). A delivery
/// that changes the topology's node or alive count makes the multicast or
/// broadcast throw std::logic_error instead of reading a stale span.
class InstantTransport final : public Transport {
 public:
  InstantTransport(const net::Topology& topo, MessageSink& sink)
      : topo_(topo), sink_(sink) {}

  void unicast(NodeId from, NodeId to, const Message& msg) override;
  void multicast(NodeId from, std::span<const NodeId> targets,
                 const Message& msg) override;
  void broadcast(NodeId from, const Message& msg) override;

 private:
  /// Hands one reception of a multicast or broadcast to the sink and
  /// checks the delivery contract.
  void deliver_in_place(NodeId to, NodeId from, const Message& msg);

  const net::Topology& topo_;
  MessageSink& sink_;
};

}  // namespace dirq::core
