// Transport abstraction under the DirQ protocol logic.
//
// DirQ's node logic is transport-agnostic: it emits unicasts (to its tree
// parent or children) and link-layer broadcasts (the hourly EHr estimate),
// and consumes delivered messages. Two implementations exist:
//
//   InstantTransport — synchronous delivery on the topology graph with
//     unit-cost accounting (1 tx + 1 rx per unicast, 1 tx + deg rx per
//     broadcast, paper §5). This is the fast path used by the 20 000-epoch
//     figure sweeps; it preserves the paper's cost model exactly while
//     skipping MAC latency.
//
//   LmacTransport (lmac_transport.hpp) — rides the src/mac LMAC instance
//     over the event scheduler: slot-synchronous delivery, real timeout-
//     based neighbour-death detection. Used by integration tests and the
//     topology-churn example.
//
// The epoch engine shards its walk only on the network's built-in
// InstantTransport, whose accounting its pool tasks mirror; any other
// transport runs the walk on the caller (DirqNetwork::set_threads).
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
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends to a one-hop neighbour. Sending to a dead/out-of-range node
  /// costs the transmission and delivers nothing.
  virtual void unicast(NodeId from, NodeId to, const Message& msg) = 0;

  /// One transmission addressed to a subset of neighbours; each addressed
  /// alive neighbour receives (1 tx + |delivered| rx). This matches the
  /// paper's Eq. (6) accounting, where a forwarding node pays a single
  /// transmission no matter how many children it targets.
  virtual void multicast(NodeId from, std::span<const NodeId> targets,
                         const Message& msg) = 0;

  /// Link-layer broadcast to all alive one-hop neighbours.
  virtual void broadcast(NodeId from, const Message& msg) = 0;

  [[nodiscard]] virtual const CostLedger& costs() const = 0;

  /// Writable ledger access. The parallel epoch engine merges its
  /// shard-local ledgers into this, and drivers swapping transports
  /// mid-run use it to carry accumulated costs over.
  [[nodiscard]] virtual CostLedger& mutable_costs() noexcept = 0;
};

/// Synchronous unit-cost transport over the topology graph.
class InstantTransport final : public Transport {
 public:
  InstantTransport(const net::Topology& topo, MessageSink& sink)
      : topo_(topo), sink_(sink) {}

  void unicast(NodeId from, NodeId to, const Message& msg) override;
  void multicast(NodeId from, std::span<const NodeId> targets,
                 const Message& msg) override;
  void broadcast(NodeId from, const Message& msg) override;

  [[nodiscard]] const CostLedger& costs() const override { return ledger_; }
  [[nodiscard]] CostLedger& mutable_costs() noexcept override {
    return ledger_;
  }

  /// Message-kind classification of one charge (query / update / control),
  /// shared with LmacTransport, the per-tree mirrors and the parallel
  /// epoch engine's shard-local ledgers so the kind split can never drift.
  static void charge_tx(CostLedger& ledger, const Message& msg,
                        CostUnits n = 1);
  static void charge_rx(CostLedger& ledger, const Message& msg,
                        CostUnits n = 1);

 private:
  const net::Topology& topo_;
  MessageSink& sink_;
  CostLedger ledger_;
};

}  // namespace dirq::core
