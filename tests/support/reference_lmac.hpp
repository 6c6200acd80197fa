// The reference LMAC: the direct implementation, in which every control
// section walks every receiver (counting the reception, re-stamping the
// entry, re-ORing the sender's view) and each frame scans every node whose
// oldest entry could have expired. tests/mac/lmac_reference_test.cpp
// drives it in lockstep with LmacNetwork on one Topology.
//
// It shares LmacConfig, Frame, LinkObserver and elect_slots with the
// implementation it checks; everything that decides what a section,
// a death or a join does to the tables and counters is its own.
#pragma once

#include <algorithm>
#include <any>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <vector>

#include "mac/lmac.hpp"
#include "net/topology.hpp"
#include "sim/scheduler.hpp"
#include "sim/types.hpp"

namespace dirq::mac {

class ReferenceLmac final : public net::TopologyObserver {
 public:
  ReferenceLmac(sim::Scheduler& sched, net::Topology& topo, LmacConfig cfg)
      : sched_(sched), topo_(topo), cfg_(cfg) {
    topo_.add_observer(this);
  }
  ~ReferenceLmac() override { topo_.remove_observer(this); }

  ReferenceLmac(const ReferenceLmac&) = delete;
  ReferenceLmac& operator=(const ReferenceLmac&) = delete;

  void start() {
    if (started_) return;
    // Validate and elect before committing any state: a failed start leaves
    // the MAC unstarted, so a retry fails the same way and send/broadcast
    // keep rejecting.
    if (cfg_.slots_per_frame > 64) {
      throw std::invalid_argument(
          "LmacNetwork: occupied-slot bitmasks support at most 64 slots");
    }
    const std::vector<int> slots = elect_slots(topo_, /*root=*/0, cfg_.slots_per_frame);
    state_.assign(topo_.size(), {});
    slot_members_.assign(cfg_.slots_per_frame, {});
    for (NodeId u = 0; u < topo_.size(); ++u) {
      if (!topo_.is_alive(u)) continue;
      state_[u].slot = slots[u];
      slot_members_[static_cast<std::size_t>(slots[u])].push_back(u);
      // Prime neighbour tables from the converged election: after bootstrap
      // every node has heard each neighbour at least once.
      for (NodeId v : topo_.neighbors(u)) {
        state_[u].neighbors.push_back(NeighborEntry{v, -1, slots[v]});
        state_[u].occupied_view |= (1ULL << static_cast<unsigned>(slots[v]));
      }
      state_[u].occupied_view |= (1ULL << static_cast<unsigned>(slots[u]));
    }
    frame_ = 0;
    next_slot_ = 0;
    started_ = true;
    schedule_next_slot();
  }

  void send(NodeId from, NodeId to, std::any payload) {
    if (!started_) throw std::logic_error("LmacNetwork::send before start()");
    state_.at(from).tx_queue.push_back(Frame{from, to, std::move(payload)});
  }

  void broadcast(NodeId from, std::any payload) {
    if (!started_) throw std::logic_error("LmacNetwork::broadcast before start()");
    state_.at(from).tx_queue.push_back(Frame{from, kNoNode, std::move(payload)});
  }

  void set_observer(LinkObserver* obs) noexcept { observer_ = obs; }

  [[nodiscard]] int slot_of(NodeId id) const { return state_.at(id).slot; }

  [[nodiscard]] std::vector<NodeId> known_neighbors(NodeId id) const {
    std::vector<NodeId> out;
    for (const NeighborEntry& e : state_.at(id).neighbors) out.push_back(e.id);
    std::sort(out.begin(), out.end());
    return out;
  }

  [[nodiscard]] std::int64_t current_frame() const noexcept { return frame_; }

  [[nodiscard]] CostUnits data_tx(NodeId id) const { return state_.at(id).data_tx; }
  [[nodiscard]] CostUnits data_rx(NodeId id) const { return state_.at(id).data_rx; }
  [[nodiscard]] CostUnits control_tx(NodeId id) const { return state_.at(id).control_tx; }
  [[nodiscard]] CostUnits control_rx(NodeId id) const { return state_.at(id).control_rx; }

  void on_node_died(NodeId id) override {
    if (!started_) return;
    NodeState& st = state_.at(id);
    if (st.slot != kNoSlot) {
      std::erase(slot_members_[static_cast<std::size_t>(st.slot)], id);
      st.slot = kNoSlot;
    }
    st.tx_queue.clear();
    // Note: the dead node's neighbours are NOT told here — they find out by
    // missing its control messages (timeout), exactly as in real LMAC.
  }

  void on_node_added(NodeId id) override {
    if (!started_) return;
    if (state_.size() < topo_.size()) state_.resize(topo_.size());
    NodeState& st = state_.at(id);
    st = NodeState{};
    st.joining = true;  // listen for one full frame, then claim a slot
  }

 private:
  static constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);

  struct NeighborEntry {
    NodeId id = kNoNode;
    std::int64_t last_heard_frame = -1;
    int slot = kNoSlot;
  };

  struct NodeState {
    int slot = kNoSlot;
    bool joining = false;               // listening for a frame before electing
    std::deque<Frame> tx_queue;
    std::vector<NeighborEntry> neighbors;
    std::uint64_t occupied_view = 0;
    CostUnits data_tx = 0, data_rx = 0, control_tx = 0, control_rx = 0;
    // entry_pos[k] is this node's entry position in the table of
    // topo.neighbors(self)[k], a hint checked by id. heard_floor <= every
    // entry's last_heard_frame.
    std::vector<std::size_t> entry_pos;
    std::int64_t heard_floor = -1;
  };

  /// Position of `id`'s entry in `table`, or kNoEntry.
  static std::size_t entry_index(const std::vector<NeighborEntry>& table, NodeId id) {
    for (std::size_t i = 0; i < table.size(); ++i) {
      if (table[i].id == id) return i;
    }
    return kNoEntry;
  }

  void schedule_next_slot() {
    const std::size_t slot_index = next_slot_;
    const SimTime when = static_cast<SimTime>(frame_) * cfg_.frame_ticks() +
                         static_cast<SimTime>(slot_index) * cfg_.ticks_per_slot;
    sched_.schedule_at(std::max(when, sched_.now()),
                       [this, slot_index] { run_slot(slot_index); });
  }

  void run_slot(std::size_t slot_index) {
    const std::vector<NodeId>& live = slot_members_[slot_index];
    slot_snapshot_.assign(live.begin(), live.end());
    for (NodeId owner : slot_snapshot_) {
      if (topo_.is_alive(owner) && !state_[owner].joining) transmit(owner);
    }
    next_slot_ = slot_index + 1;
    if (next_slot_ == cfg_.slots_per_frame) {
      end_of_frame();
      next_slot_ = 0;
      ++frame_;
    }
    schedule_next_slot();
  }

  void transmit(NodeId owner) {
    NodeState& st = state_[owner];
    // Control section: one broadcast transmission, every alive neighbour
    // receives (and refreshes its liveness entry for `owner`).
    st.control_tx += 1;
    const auto nbrs = topo_.neighbors(owner);
    if (st.entry_pos.size() != nbrs.size()) st.entry_pos.resize(nbrs.size(), 0);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const NodeId v = nbrs[k];
      NodeState& recv = state_[v];
      recv.control_rx += 1;
      std::size_t& pos = st.entry_pos[k];
      if (pos >= recv.neighbors.size() || recv.neighbors[pos].id != owner) {
        pos = entry_index(recv.neighbors, owner);
      }
      if (pos == kNoEntry) {
        // First time this node hears `owner` (node addition, §4.2).
        pos = recv.neighbors.size();
        recv.neighbors.push_back(NeighborEntry{owner, frame_, st.slot});
        recv.occupied_view |= (1ULL << static_cast<unsigned>(st.slot));
        if (observer_ != nullptr) observer_->on_neighbor_found(v, owner);
      } else {
        recv.neighbors[pos].last_heard_frame = frame_;
        recv.neighbors[pos].slot = st.slot;
      }
      // Occupied-slot gossip: hearers fold the sender's view into their own
      // (this is how LMAC propagates 2-hop occupancy).
      recv.occupied_view |= st.occupied_view;
    }

    // Data section: queued messages, transmitted this slot.
    while (!st.tx_queue.empty()) {
      Frame f = std::move(st.tx_queue.front());
      st.tx_queue.pop_front();
      st.data_tx += 1;
      if (f.dst == kNoNode) {
        for (NodeId v : topo_.neighbors(owner)) {
          state_[v].data_rx += 1;
          if (observer_ != nullptr) observer_->on_message(v, f);
        }
      } else if (f.dst < topo_.size() && topo_.is_alive(f.dst)) {
        // Unicast: only the addressed neighbour decodes the data section
        // (LMAC receivers sleep through data not addressed to them).
        const auto in_range = topo_.neighbors(owner);
        if (std::binary_search(in_range.begin(), in_range.end(), f.dst)) {
          state_[f.dst].data_rx += 1;
          if (observer_ != nullptr) observer_->on_message(f.dst, f);
        }
        // else: destination out of range (moved/died) — message lost.
      }
    }
  }

  void end_of_frame() {
    for (NodeId u = 0; u < topo_.size(); ++u) {
      if (!topo_.is_alive(u)) continue;
      if (state_[u].joining) {
        elect_joining_node(u);
      } else if (frame_ - state_[u].heard_floor >= cfg_.timeout_frames) {
        // Below that, no entry can have gone silent long enough to expire.
        check_timeouts(u);
      }
    }
  }

  void check_timeouts(NodeId id) {
    NodeState& st = state_[id];
    // Entries added later are heard at frame_ or after.
    std::int64_t floor = frame_;
    for (std::size_t i = 0; i < st.neighbors.size();) {
      NeighborEntry& e = st.neighbors[i];
      // last_heard_frame == -1 means "primed at bootstrap, not heard since";
      // treat bootstrap as frame -1 so a node dead from frame 0 still times
      // out after timeout_frames frames.
      const std::int64_t silent = frame_ - e.last_heard_frame;
      if (silent >= cfg_.timeout_frames) {
        const NodeId lost = e.id;
        st.neighbors.erase(st.neighbors.begin() + static_cast<std::ptrdiff_t>(i));
        if (observer_ != nullptr) observer_->on_neighbor_lost(id, lost);
      } else {
        floor = std::min(floor, e.last_heard_frame);
        ++i;
      }
    }
    st.heard_floor = floor;
  }

  void elect_joining_node(NodeId id) {
    NodeState& st = state_[id];
    // The joiner has listened for a full frame: its occupied_view now holds
    // every slot used within two hops (1-hop control sections carry 2-hop
    // occupancy). Claim the lowest free slot.
    std::uint64_t taken = st.occupied_view;
    for (NodeId v : topo_.neighbors(id)) {
      taken |= state_[v].occupied_view;
    }
    int chosen = kNoSlot;
    for (std::size_t s = 0; s < cfg_.slots_per_frame; ++s) {
      if ((taken & (1ULL << s)) == 0) {
        chosen = static_cast<int>(s);
        break;
      }
    }
    if (chosen == kNoSlot) return;  // stays joining; retries after the next frame
    st.slot = chosen;
    st.joining = false;
    slot_members_[static_cast<std::size_t>(chosen)].push_back(id);
    st.occupied_view |= (1ULL << static_cast<unsigned>(chosen));
  }

  sim::Scheduler& sched_;
  net::Topology& topo_;
  LmacConfig cfg_;
  LinkObserver* observer_ = nullptr;
  std::vector<NodeState> state_;
  std::vector<std::vector<NodeId>> slot_members_;
  std::vector<NodeId> slot_snapshot_;
  std::int64_t frame_ = 0;
  std::size_t next_slot_ = 0;
  bool started_ = false;
};

}  // namespace dirq::mac
