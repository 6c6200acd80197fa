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
//   * Occupancy gossip is transitive. A hearer ORs the sender's whole
//     view into its own, and views only grow, so within a few frames every
//     view holds every slot ever used in its connected component, not
//     LMAC's 2-hop occupancy. A joiner therefore claims the lowest slot
//     never used in its component, where LMAC would reuse a slot that is
//     free within two hops; and once a component has used every slot, a
//     joiner linked to it stays joining (join_retries() counts its tries).
//     Views only decide joiners' elections, so a fix changes the output of
//     every run with a join, the churn freeze digests among them.
//   * A slot's data section carries all queued messages (no fragmentation).
//     The paper's cost unit is per logical message, which we count.
//
// Simulator cost: a frame is its slot events plus the control sections
// that change something. A section only visits its receivers when the
// sender is dirty: at start, after its own view grew, after a node was
// linked to it, or after it was reset by a join. Every other section
// reaches exactly the receivers its last dirty section reached, ORs in a
// view they already hold and finds every entry present, so it only
// counts itself and stamps its frame:
//   * A live entry (one the sender's sections still reach) holds the
//     sender's control_tx at its last settlement; the receiver's
//     control_rx is its settled count plus, per live entry, the sender's
//     sections since. The entry was last heard at the sender's last
//     transmit frame.
//   * Links only drop when a node dies, so a death is the only way an
//     entry goes silent. A death settles and freezes the entries in both
//     directions and files each holder for a timeout scan at the frame its
//     frozen entry expires; end_of_frame scans only those holders (and a
//     joiner the frame after it elects, since a joiner is never scanned),
//     so losses fire at the frame, and in the order, a scan of every node
//     every frame reports them.
// A steady frame therefore costs O(slots + nodes) instead of O(sum of
// degrees). A death costs O(degree). A join dirties the joiner's
// neighbours, and the slot it claims reaches every view in its component,
// so each node there sends one dirty section over the next few frames.
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
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

/// The whole-network LMAC instance. One object simulates every node's MAC
/// (the usual discrete-event style); per-node state is strictly separated
/// so no node ever reads another node's tables — only messages cross.
class LmacNetwork final : public net::TopologyObserver {
 public:
  LmacNetwork(sim::Scheduler& sched, net::Topology& topo, LmacConfig cfg);
  ~LmacNetwork() override;

  LmacNetwork(const LmacNetwork&) = delete;
  LmacNetwork& operator=(const LmacNetwork&) = delete;

  /// Elects slots for all alive nodes and starts the frame loop. Throws
  /// std::invalid_argument, before committing any state, unless
  /// slots_per_frame is in [1, 64] (the occupied-slot bitmask width),
  /// ticks_per_slot >= 1 and timeout_frames >= 1.
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
  [[nodiscard]] CostUnits control_rx(NodeId id) const;
  [[nodiscard]] CostUnits total_data_cost() const;

  /// Elections that found no free slot, summed over nodes and frames. A
  /// joiner that finds none stays joining and retries every frame. Views
  /// only grow, so a retry succeeds only after the neighbours whose views
  /// fill the frame have died (see the notes above).
  [[nodiscard]] std::uint64_t join_retries() const noexcept { return join_retries_; }

  // --- TopologyObserver ---------------------------------------------------
  void on_node_died(NodeId id) override;
  void on_node_added(NodeId id) override;

 private:
  /// A node's record of a neighbour it has heard.
  struct NeighborEntry {
    NodeId id = kNoNode;
    // While `live`, the neighbour's sections still reach this node: it was
    // last heard at the neighbour's last_tx_frame (this field is stale),
    // and it has sent control_tx - mark sections here since `mark`.
    std::int64_t last_heard_frame = -1;
    bool live = false;
    CostUnits mark = 0;
  };

  struct NodeState {
    int slot = kNoSlot;
    bool joining = false;               // listening for a frame before electing
    bool dirty = true;                  // next section visits its receivers
    std::deque<Frame> tx_queue;
    std::vector<NeighborEntry> neighbors;
    // The adjacency at this node's last dirty section: every node holding
    // a live entry for it is in here.
    std::vector<NodeId> receivers;
    std::uint64_t occupied_view = 0;    // slots heard, transitively (see notes)
    std::int64_t last_tx_frame = -1;
    // control_rx is the settled part; control_rx() adds the live entries.
    CostUnits data_tx = 0, data_rx = 0, control_tx = 0, control_rx = 0;
  };

  void schedule_next_slot();
  void run_slot(std::size_t slot_index);
  void end_of_frame();
  void transmit(NodeId owner);
  void transmit_control_dirty(NodeId owner);
  void check_timeouts(NodeId id);
  void elect_joining_node(NodeId id);
  /// Folds a live entry's uncounted sections into `holder`'s control_rx
  /// and freezes its stamp; a no-op on an entry that is not live.
  void settle(NodeState& holder, NeighborEntry& entry);
  void file_scan(NodeId id, std::int64_t frame);

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
  // A dirty section's receivers' entries for its sender (null: none yet).
  std::vector<NeighborEntry*> heard_entries_;
  // Frame -> nodes whose tables hold an entry that expires in that frame.
  std::map<std::int64_t, std::vector<NodeId>> scans_due_;
  std::vector<NodeId> joiners_;       // may hold dead or repeated ids
  std::vector<NodeId> frame_visits_;  // end_of_frame's merged list, reused
  std::uint64_t join_retries_ = 0;
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
