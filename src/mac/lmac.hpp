// LMAC reimplementation (van Hoesel & Havinga, the paper's ref [2]).
//
// LMAC is a TDMA MAC with a distributed, self-organising slot election:
// each node owns one slot per frame, chosen so that no node within two
// hops owns the same slot; in its slot a node transmits a control section
// (its view of occupied slots) followed by its data section. DirQ consumes
// exactly two things from LMAC (paper §4.2):
//
//   1. slot-synchronous delivery of its unicast/broadcast messages, and
//   2. cross-layer notifications when a neighbour dies (missed control
//      messages for `timeout_frames` frames) or appears (control message
//      heard in a previously silent slot).
//
// Faithfulness notes (documented deviations):
//   * The initial election is computed as the converged 2-hop-exclusive
//     assignment (greedy, BFS order from the root) instead of replaying
//     LMAC's multi-frame bootstrap gossip; the *runtime* behaviour —
//     occupied-slot bitmasks, join-by-listening, timeout-based death
//     detection — is modelled event-by-event. DirQ never observes the
//     bootstrap, only the converged schedule, so this preserves every
//     behaviour DirQ depends on.
//   * A slot's data section carries all queued messages (no fragmentation).
//     The paper's cost unit is per logical message, which we count.
//
// Simulator cost: one frame is O(sum of degrees) control receptions. Two
// pieces of simulator bookkeeping (indexes over the per-node tables, not
// state any simulated node can see) keep it there:
//   * Each sender caches, per entry of its topology adjacency, the position
//     of its own entry in that neighbour's table. A receiver holds at most
//     one entry per sender, so a cached position whose entry carries the
//     sender's id is exact; any other position (a timeout erase shifted
//     the table, a join appended to it, churn relinked the adjacency)
//     falls back to a table scan that refreshes the cache.
//   * Each node keeps a floor that never exceeds any of its entries'
//     last_heard_frame; end_of_frame skips the timeout scan while the floor
//     proves no entry can have expired, so losses fire exactly when (and
//     in the order) a full scan would report them.
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "net/topology.hpp"
#include "sim/scheduler.hpp"
#include "sim/types.hpp"

namespace dirq::mac {

struct LmacConfig {
  std::size_t slots_per_frame = 32;  // LMAC deployments typically use 32
  SimTime ticks_per_slot = 32;       // 32 slots x 32 ticks = 1024 = 1 epoch
  int timeout_frames = 4;            // frames of silence before a neighbour
                                     // is declared dead
  [[nodiscard]] SimTime frame_ticks() const noexcept {
    return static_cast<SimTime>(slots_per_frame) * ticks_per_slot;
  }
};

inline constexpr int kNoSlot = -1;

/// A message riding in a node's data section.
struct Frame {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;  // kNoNode = link-layer broadcast
  std::any payload;
};

/// Upper-layer (DirQ) interface: delivery plus the cross-layer topology
/// notifications of paper §4.2.
class LinkObserver {
 public:
  virtual ~LinkObserver() = default;
  virtual void on_message(NodeId /*self*/, const Frame& /*frame*/) {}
  virtual void on_neighbor_lost(NodeId /*self*/, NodeId /*neighbor*/) {}
  virtual void on_neighbor_found(NodeId /*self*/, NodeId /*neighbor*/) {}
};

/// Per-node per-neighbour liveness bookkeeping.
struct NeighborEntry {
  NodeId id = kNoNode;
  std::int64_t last_heard_frame = -1;
  int slot = kNoSlot;
};

/// The whole-network LMAC instance. One object simulates every node's MAC
/// (the usual discrete-event style); per-node state is strictly separated
/// so no node ever reads another node's tables — only messages cross.
class LmacNetwork final : public net::TopologyObserver {
 public:
  LmacNetwork(sim::Scheduler& sched, net::Topology& topo, LmacConfig cfg);
  ~LmacNetwork() override;

  LmacNetwork(const LmacNetwork&) = delete;
  LmacNetwork& operator=(const LmacNetwork&) = delete;

  /// Elects slots for all alive nodes and starts the frame loop.
  void start();

  /// Enqueues a unicast to a (current) neighbour; it is transmitted in the
  /// sender's next slot. Messages to nodes that have meanwhile died are
  /// transmitted and lost (the sender pays the tx cost, nobody receives).
  void send(NodeId from, NodeId to, std::any payload);

  /// Enqueues a link-layer broadcast (all alive 1-hop neighbours receive).
  void broadcast(NodeId from, std::any payload);

  void set_observer(LinkObserver* obs) noexcept { observer_ = obs; }

  /// Slot owned by the node, or kNoSlot if it has none (dead / unjoined).
  [[nodiscard]] int slot_of(NodeId id) const { return state_.at(id).slot; }

  /// The node's current view of its alive neighbours.
  [[nodiscard]] std::vector<NodeId> known_neighbors(NodeId id) const;

  [[nodiscard]] std::int64_t current_frame() const noexcept { return frame_; }
  [[nodiscard]] const LmacConfig& config() const noexcept { return cfg_; }

  // --- energy accounting (1 unit per tx, 1 per rx; paper §5) -------------
  [[nodiscard]] CostUnits data_tx(NodeId id) const { return state_.at(id).data_tx; }
  [[nodiscard]] CostUnits data_rx(NodeId id) const { return state_.at(id).data_rx; }
  [[nodiscard]] CostUnits control_tx(NodeId id) const { return state_.at(id).control_tx; }
  [[nodiscard]] CostUnits control_rx(NodeId id) const { return state_.at(id).control_rx; }
  [[nodiscard]] CostUnits total_data_cost() const;

  // --- TopologyObserver ---------------------------------------------------
  void on_node_died(NodeId id) override;
  void on_node_added(NodeId id) override;

 private:
  struct NodeState {
    int slot = kNoSlot;
    bool joining = false;               // listening for a frame before electing
    std::deque<Frame> tx_queue;
    std::vector<NeighborEntry> neighbors;
    std::uint64_t occupied_view = 0;    // bitmask of slots heard (1- and 2-hop)
    CostUnits data_tx = 0, data_rx = 0, control_tx = 0, control_rx = 0;
    // Simulator bookkeeping (see the header comment). entry_pos[k] is this
    // node's entry position in the table of topo.neighbors(self)[k], a
    // hint checked by id. heard_floor <= every entry's last_heard_frame.
    std::vector<std::size_t> entry_pos;
    std::int64_t heard_floor = -1;
  };

  void schedule_next_slot();
  void run_slot(std::size_t slot_index);
  void end_of_frame();
  void transmit(NodeId owner);
  void check_timeouts(NodeId id);
  void elect_joining_node(NodeId id);

  sim::Scheduler& sched_;
  net::Topology& topo_;
  LmacConfig cfg_;
  LinkObserver* observer_ = nullptr;
  std::vector<NodeState> state_;
  // slot -> owners. TDMA with spatial reuse: several nodes share a slot as
  // long as they are more than two hops apart (the election guarantees it).
  std::vector<std::vector<NodeId>> slot_members_;
  // run_slot's snapshot of the slot's members (joins/deaths during delivery
  // may edit the live list), reused so a slot allocates nothing.
  std::vector<NodeId> slot_snapshot_;
  std::int64_t frame_ = 0;
  std::size_t next_slot_ = 0;
  bool started_ = false;
};

/// Computes a 2-hop-exclusive slot assignment for all alive nodes, greedy
/// in BFS order from `root` (the converged result of LMAC's distributed
/// election). Returns one slot per node id, kNoSlot for dead nodes.
/// Throws std::runtime_error if `slots` is insufficient for the 2-hop
/// neighbourhood sizes in the topology.
std::vector<int> elect_slots(const net::Topology& topo, NodeId root,
                             std::size_t slots);

}  // namespace dirq::mac
