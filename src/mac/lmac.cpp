#include "mac/lmac.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <stdexcept>

namespace dirq::mac {

namespace {

/// `id`'s entry in `table`, or nullptr. Only dirty sections and deaths
/// look entries up, so a scan is enough.
template <typename Entry>
Entry* find_entry(std::vector<Entry>& table, NodeId id) {
  for (Entry& e : table) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

}  // namespace

std::vector<int> elect_slots(const net::Topology& topo, NodeId root,
                             std::size_t slots) {
  const std::size_t n = topo.size();
  std::vector<int> slot(n, kNoSlot);
  if (n == 0) return slot;

  // BFS order from the root mirrors LMAC's wave-like election: nodes closer
  // to the gateway settle first, later nodes avoid slots taken within two
  // hops of themselves.
  std::vector<bool> seen(n, false);
  std::deque<NodeId> frontier;
  if (root < n && topo.is_alive(root)) {
    frontier.push_back(root);
    seen[root] = true;
  }
  std::vector<NodeId> order;
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop_front();
    order.push_back(u);
    for (NodeId v : topo.neighbors(u)) {
      if (!seen[v]) {
        seen[v] = true;
        frontier.push_back(v);
      }
    }
  }
  // Isolated alive nodes (not reachable from root) still get slots, after
  // the connected component.
  for (NodeId u = 0; u < n; ++u) {
    if (topo.is_alive(u) && !seen[u]) order.push_back(u);
  }

  for (NodeId u : order) {
    std::vector<bool> taken(slots, false);
    for (NodeId v : topo.neighbors(u)) {
      if (slot[v] != kNoSlot) taken[static_cast<std::size_t>(slot[v])] = true;
      for (NodeId w : topo.neighbors(v)) {
        if (w != u && slot[w] != kNoSlot) {
          taken[static_cast<std::size_t>(slot[w])] = true;
        }
      }
    }
    int chosen = kNoSlot;
    for (std::size_t s = 0; s < slots; ++s) {
      if (!taken[s]) {
        chosen = static_cast<int>(s);
        break;
      }
    }
    if (chosen == kNoSlot) {
      throw std::runtime_error(
          "elect_slots: frame too short for 2-hop neighbourhood");
    }
    slot[u] = chosen;
  }
  return slot;
}

LmacNetwork::LmacNetwork(sim::Scheduler& sched, net::Topology& topo, LmacConfig cfg)
    : sched_(sched), topo_(topo), cfg_(cfg) {
  topo_.add_observer(this);
}

LmacNetwork::~LmacNetwork() { topo_.remove_observer(this); }

void LmacNetwork::start() {
  if (started_) return;
  // Validate and elect before committing any state: a failed start leaves
  // the MAC unstarted, so a retry fails the same way and send/broadcast
  // keep rejecting.
  if (cfg_.slots_per_frame < 1 || cfg_.slots_per_frame > 64) {
    throw std::invalid_argument(
        "LmacNetwork: slots_per_frame must be in [1, 64] (the occupied-slot "
        "bitmask width)");
  }
  if (cfg_.ticks_per_slot < 1) {
    throw std::invalid_argument("LmacNetwork: ticks_per_slot must be >= 1");
  }
  if (cfg_.timeout_frames < 1) {
    throw std::invalid_argument("LmacNetwork: timeout_frames must be >= 1");
  }
  const std::vector<int> slots = elect_slots(topo_, /*root=*/0, cfg_.slots_per_frame);
  state_.assign(topo_.size(), {});
  slot_members_.assign(cfg_.slots_per_frame, {});
  for (NodeId u = 0; u < topo_.size(); ++u) {
    if (!topo_.is_alive(u)) continue;
    NodeState& st = state_[u];
    st.slot = slots[u];
    slot_members_[static_cast<std::size_t>(slots[u])].push_back(u);
    // Prime neighbour tables from the converged election: after bootstrap
    // every node has heard each neighbour at least once. An entry is live
    // from the start (its neighbour's last_tx_frame is -1 until it
    // transmits), and every node starts dirty. Links only join alive
    // nodes, so every neighbour has a slot.
    const auto nbrs = topo_.neighbors(u);
    st.receivers.assign(nbrs.begin(), nbrs.end());
    for (NodeId v : nbrs) {
      st.neighbors.push_back(NeighborEntry{v, -1, true, 0});
      st.occupied_view |= (1ULL << static_cast<unsigned>(slots[v]));
    }
    st.occupied_view |= (1ULL << static_cast<unsigned>(slots[u]));
  }
  frame_ = 0;
  next_slot_ = 0;
  started_ = true;
  schedule_next_slot();
}

void LmacNetwork::schedule_next_slot() {
  const std::size_t slot_index = next_slot_;
  const SimTime when = static_cast<SimTime>(frame_) * cfg_.frame_ticks() +
                       static_cast<SimTime>(slot_index) * cfg_.ticks_per_slot;
  sched_.schedule_at(std::max(when, sched_.now()),
                     [this, slot_index] { run_slot(slot_index); });
}

void LmacNetwork::run_slot(std::size_t slot_index) {
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

void LmacNetwork::transmit(NodeId owner) {
  NodeState& st = state_[owner];
  // Control section: one broadcast transmission that every alive neighbour
  // receives. A clean section reaches the receivers of the last dirty one,
  // whose entries are live and whose views already hold the sender's, so
  // it only counts itself and stamps its frame (see the header comment).
  if (st.dirty) {
    transmit_control_dirty(owner);
  } else {
    st.control_tx += 1;
    st.last_tx_frame = frame_;
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

void LmacNetwork::transmit_control_dirty(NodeId owner) {
  NodeState& st = state_[owner];
  const auto nbrs = topo_.neighbors(owner);
  // Settle every receiver's entry first, so that until the loop below
  // reaches a receiver its control_rx does not count this section. Only
  // that loop grows a table, one with no entry here, so the pointers hold.
  heard_entries_.clear();
  for (NodeId v : nbrs) {
    NeighborEntry* e = find_entry(state_[v].neighbors, owner);
    if (e != nullptr) settle(state_[v], *e);
    heard_entries_.push_back(e);
  }
  st.control_tx += 1;
  st.last_tx_frame = frame_;
  st.dirty = false;  // before any callback, so a join it causes re-dirties
  st.receivers.assign(nbrs.begin(), nbrs.end());
  const NeighborEntry heard{owner, frame_, true, st.control_tx};
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    const NodeId v = nbrs[k];
    NodeState& recv = state_[v];
    const std::uint64_t view_before = recv.occupied_view;
    recv.control_rx += 1;
    if (NeighborEntry* e = heard_entries_[k]) {
      *e = heard;
    } else {
      // First time this node hears `owner` (node addition, §4.2).
      recv.neighbors.push_back(heard);
      recv.occupied_view |= (1ULL << static_cast<unsigned>(st.slot));
      if (observer_ != nullptr) observer_->on_neighbor_found(v, owner);
    }
    // Occupied-slot gossip: hearers fold the sender's view into their own.
    // A hearer whose view grew must pass it on in its next section.
    recv.occupied_view |= st.occupied_view;
    if (recv.occupied_view != view_before) recv.dirty = true;
  }
}

void LmacNetwork::settle(NodeState& holder, NeighborEntry& entry) {
  if (!entry.live) return;
  const NodeState& sender = state_[entry.id];
  holder.control_rx += sender.control_tx - entry.mark;
  entry.last_heard_frame = sender.last_tx_frame;
  entry.live = false;
}

void LmacNetwork::file_scan(NodeId id, std::int64_t frame) {
  assert(frame >= frame_);
  scans_due_[frame].push_back(id);
}

void LmacNetwork::end_of_frame() {
  // Only two kinds of node can have work: joiners, and nodes holding an
  // entry that expires this frame. Visit them in id order, as a pass over
  // every node would.
  std::vector<NodeId>& visit = frame_visits_;
  visit.assign(joiners_.begin(), joiners_.end());
  if (auto due = scans_due_.find(frame_); due != scans_due_.end()) {
    visit.insert(visit.end(), due->second.begin(), due->second.end());
    scans_due_.erase(due);
  }
  std::sort(visit.begin(), visit.end());
  visit.erase(std::unique(visit.begin(), visit.end()), visit.end());
  joiners_.clear();
  for (NodeId u : visit) {
    if (!topo_.is_alive(u)) continue;
    if (!state_[u].joining) {
      check_timeouts(u);
      continue;
    }
    elect_joining_node(u);
    if (state_[u].joining) {
      joiners_.push_back(u);
    } else {
      // A joiner is never scanned, so an entry may have expired while it
      // listened: scan it the frame after it elects.
      file_scan(u, frame_ + 1);
    }
  }
}

void LmacNetwork::check_timeouts(NodeId id) {
  NodeState& st = state_[id];
  for (std::size_t i = 0; i < st.neighbors.size();) {
    const NeighborEntry& e = st.neighbors[i];
    // A live entry was heard this frame. A frozen one keeps the frame its
    // sender last transmitted in, -1 for a sender that died before its
    // first section, so it still times out after timeout_frames frames.
    if (!e.live && frame_ - e.last_heard_frame >= cfg_.timeout_frames) {
      const NodeId lost = e.id;
      st.neighbors.erase(st.neighbors.begin() + static_cast<std::ptrdiff_t>(i));
      if (observer_ != nullptr) observer_->on_neighbor_lost(id, lost);
    } else {
      ++i;
    }
  }
}

void LmacNetwork::elect_joining_node(NodeId id) {
  NodeState& st = state_[id];
  // The joiner has listened for a full frame: its occupied_view now holds
  // every slot used within two hops, and, since gossip is transitive, every
  // slot its neighbours' views hold (see the header notes). Claim the
  // lowest slot outside them all.
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
  if (chosen == kNoSlot) {
    ++join_retries_;
    return;  // stays joining; retries after the next frame
  }
  st.slot = chosen;
  st.joining = false;
  slot_members_[static_cast<std::size_t>(chosen)].push_back(id);
  st.occupied_view |= (1ULL << static_cast<unsigned>(chosen));
}

void LmacNetwork::send(NodeId from, NodeId to, std::any payload) {
  if (!started_) throw std::logic_error("LmacNetwork::send before start()");
  state_.at(from).tx_queue.push_back(Frame{from, to, std::move(payload)});
}

void LmacNetwork::broadcast(NodeId from, std::any payload) {
  if (!started_) throw std::logic_error("LmacNetwork::broadcast before start()");
  state_.at(from).tx_queue.push_back(Frame{from, kNoNode, std::move(payload)});
}

std::vector<NodeId> LmacNetwork::known_neighbors(NodeId id) const {
  std::vector<NodeId> out;
  for (const NeighborEntry& e : state_.at(id).neighbors) out.push_back(e.id);
  std::sort(out.begin(), out.end());
  return out;
}

CostUnits LmacNetwork::control_rx(NodeId id) const {
  const NodeState& st = state_.at(id);
  CostUnits rx = st.control_rx;
  for (const NeighborEntry& e : st.neighbors) {
    if (e.live) rx += state_[e.id].control_tx - e.mark;
  }
  return rx;
}

CostUnits LmacNetwork::total_data_cost() const {
  CostUnits total = 0;
  for (const NodeState& st : state_) total += st.data_tx + st.data_rx;
  return total;
}

void LmacNetwork::on_node_died(NodeId id) {
  if (!started_) return;
  NodeState& st = state_.at(id);
  if (st.slot != kNoSlot) {
    std::erase(slot_members_[static_cast<std::size_t>(st.slot)], id);
    st.slot = kNoSlot;
  }
  st.tx_queue.clear();
  // The dead node's neighbours are NOT told — they find out by missing its
  // control messages (timeout), exactly as in real LMAC. Here the entries
  // they hold for it stop being live, and each holder is filed for a scan
  // at the frame its entry expires. The topology has already unlinked the
  // node; `receivers` still names its last hearers.
  for (NodeId v : st.receivers) {
    NeighborEntry* e = find_entry(state_[v].neighbors, id);
    if (e == nullptr || !e->live) continue;
    settle(state_[v], *e);
    file_scan(v, e->last_heard_frame + cfg_.timeout_frames);
  }
  st.receivers.clear();
  // A dead node hears nothing more.
  for (NeighborEntry& e : st.neighbors) settle(st, e);
}

void LmacNetwork::on_node_added(NodeId id) {
  if (!started_) return;
  if (state_.size() < topo_.size()) state_.resize(topo_.size());
  NodeState& st = state_.at(id);
  st = NodeState{};   // dirty, with an empty table and view
  st.joining = true;  // listen for one full frame, then claim a slot
  joiners_.push_back(id);
  // Its neighbours' next sections must find it and fill its view.
  for (NodeId v : topo_.neighbors(id)) state_[v].dirty = true;
}

}  // namespace dirq::mac
