#include "core/dirq_node.hpp"

#include <algorithm>
#include <stdexcept>

namespace dirq::core {

DirqNode::DirqNode(NodeId id, std::vector<SensorType> sensors,
                   std::unique_ptr<ThetaController> controller)
    : id_(id), sensors_(std::move(sensors)) {
  std::sort(sensors_.begin(), sensors_.end());
  sensors_.erase(std::unique(sensors_.begin(), sensors_.end()), sensors_.end());
  slots_.emplace_back();
  slots_.back().controller = std::move(controller);
}

void DirqNode::add_slot(std::unique_ptr<ThetaController> controller) {
  slots_.emplace_back();
  slots_.back().controller = std::move(controller);
}

void DirqNode::set_children(TreeId tree, std::vector<NodeId> children) {
  std::sort(children.begin(), children.end());
  slots_.at(tree).children = std::move(children);
}

const RangeTable* DirqNode::table(TreeId tree, SensorType type) const {
  const TreeSlot& slot = slots_.at(tree);
  auto it = slot.tables.find(type);
  if (it == slot.tables.end() || !it->second.has_any()) return nullptr;
  return &it->second;
}

void DirqNode::observe_slot(TreeId tree, SensorType type, double reading,
                            std::int64_t epoch) {
  if (!std::binary_search(sensors_.begin(), sensors_.end(), type)) return;
  TreeSlot& slot = slots_.at(tree);
  if (slot.tables[type].observe(reading, slot.controller->theta(type))) {
    maybe_send_update(tree, type, epoch);
  }
}

void DirqNode::maybe_send_update(TreeId tree, SensorType type,
                                 std::int64_t epoch) {
  TreeSlot& slot = slots_.at(tree);
  RangeTable& t = slot.tables[type];
  if (!t.needs_update(slot.controller->theta(type))) return;
  const RangeAggregate agg = t.aggregate();
  t.mark_sent();
  if (slot.parent == kNoNode) return;  // root: aggregates stop here
  UpdateMessage u;
  u.from = id_;
  u.tree = tree;
  u.type = type;
  if (agg.has_value()) {
    u.min = agg->min;
    u.max = agg->max;
    u.has_range = true;
  } else {
    u.has_range = false;  // retraction: type left this subtree
  }
  slot.controller->on_update_sent(type, epoch);
  if (send_) send_(id_, slot.parent, Message{u});
}

void DirqNode::handle(const Message& msg, NodeId from, std::int64_t epoch) {
  // A message tagged for a tree this node has no slot for (e.g. in flight
  // across a reconfiguration) is dropped, mirroring the stale-sender rule.
  if (!slot_exists(message_tree(msg))) return;
  if (const auto* u = std::get_if<UpdateMessage>(&msg)) {
    handle_update(*u, from, epoch);
  } else if (const auto* q = std::get_if<QueryMessage>(&msg)) {
    forward_query(msg, q->tree, q->q);
  } else if (const auto* mq = std::get_if<MultiQueryMessage>(&msg)) {
    forward_query(msg, mq->tree, mq->q);
  } else if (const auto* e = std::get_if<EhrMessage>(&msg)) {
    handle_ehr(*e, from, epoch);
  } else if (const auto* l = std::get_if<LocationAnnounce>(&msg)) {
    handle_location(*l, from, epoch);
  }
}

void DirqNode::handle_update(const UpdateMessage& u, NodeId from,
                             std::int64_t epoch) {
  TreeSlot& slot = slots_.at(u.tree);
  // Updates are only meaningful from tree children; stale senders (e.g. a
  // message in flight across a re-parenting) are ignored.
  if (!std::binary_search(slot.children.begin(), slot.children.end(), from)) {
    return;
  }
  RangeTable& t = slot.tables[u.type];
  if (u.has_range) {
    t.set_child(from, RangeEntry{u.min, u.max});
  } else {
    t.remove_child(from);
  }
  maybe_send_update(u.tree, u.type, epoch);
}

template <typename Query>
void DirqNode::forward_query(const Message& msg, TreeId tree, const Query& q) {
  // Delivery itself is recorded by the network (audit). Here the node
  // directs the query onward: one transmission addressed to every child
  // whose announced range overlaps the query window (§4.1, Eq. 6 cost
  // accounting), forwarding the received message itself. Answering (data
  // extraction) is out of the paper's scope.
  if (forwarding_) {
    // On a tree a query only reaches a forwarding node's descendants;
    // reaching the node again means a cycle, so tree state diverged.
    throw std::logic_error(
        "DirqNode: a query reached a node still forwarding one (forwarding "
        "cycle: tree state diverged)");
  }
  forwarding_set(tree, q, forward_to_);
  if (forward_to_.empty() || !multicast_) return;
  forwarding_ = true;
  try {
    multicast_(id_, forward_to_, msg);
  } catch (...) {
    forwarding_ = false;
    throw;
  }
  forwarding_ = false;
}

net::BBox DirqNode::subtree_box(TreeId tree) const {
  const TreeSlot& slot = slots_.at(tree);
  net::BBox box = has_position_ ? net::BBox::point(x_, y_) : net::BBox::empty();
  for (const auto& [child, b] : slot.child_boxes) box = box.join(b);
  return box;
}

void DirqNode::announce_location(TreeId tree, std::int64_t /*epoch*/) {
  TreeSlot& slot = slots_.at(tree);
  const net::BBox box = subtree_box(tree);
  if (box.is_empty()) return;  // nothing located in this subtree
  if (slot.box_sent && box == slot.sent_box) return;
  slot.sent_box = box;
  slot.box_sent = true;
  if (slot.parent != kNoNode && send_) {
    send_(id_, slot.parent, Message{LocationAnnounce{id_, tree, box}});
  }
}

void DirqNode::handle_location(const LocationAnnounce& l, NodeId from,
                               std::int64_t epoch) {
  TreeSlot& slot = slots_.at(l.tree);
  if (!std::binary_search(slot.children.begin(), slot.children.end(), from)) {
    return;
  }
  slot.child_boxes[from] = l.box;
  announce_location(l.tree, epoch);  // propagate growth toward the root
}

void DirqNode::handle_ehr(const EhrMessage& e, NodeId /*from*/,
                          std::int64_t epoch) {
  TreeSlot& slot = slots_.at(e.tree);
  if (e.round <= slot.last_ehr_round) return;  // duplicate of this flood round
  slot.last_ehr_round = e.round;
  slot.controller->on_ehr(e, epoch);
  if (broadcast_) broadcast_(id_, Message{e});  // re-flood once
}

bool DirqNode::child_may_be_in_region(
    const TreeSlot& slot, NodeId child,
    const std::optional<net::BBox>& region) const {
  if (!region.has_value()) return true;
  auto it = slot.child_boxes.find(child);
  if (it == slot.child_boxes.end()) return true;  // unknown box: never prune
  return region->intersects(it->second);
}

void DirqNode::forwarding_set(TreeId tree, const query::RangeQuery& q,
                              std::vector<NodeId>& out) const {
  const TreeSlot& slot = slots_.at(tree);
  out.clear();
  auto it = slot.tables.find(q.type);
  if (it == slot.tables.end()) return;
  for (const auto& [child, range] : it->second.children()) {
    if (q.overlaps(range.min, range.max) &&
        child_may_be_in_region(slot, child, q.region)) {
      out.push_back(child);
    }
  }
}

void DirqNode::forwarding_set(TreeId tree, const query::MultiQuery& q,
                              std::vector<NodeId>& out) const {
  // Conjunctive pruning: a child survives only if EVERY predicate's
  // subtree range overlaps (and the region test passes). A child that
  // never announced some predicate's type provably has no node carrying
  // all types in its subtree — prune it.
  const TreeSlot& slot = slots_.at(tree);
  out.clear();
  if (q.predicates.empty()) return;
  for (NodeId child : slot.children) {
    bool all = child_may_be_in_region(slot, child, q.region);
    for (const query::AttributePredicate& p : q.predicates) {
      if (!all) break;
      auto it = slot.tables.find(p.type);
      const std::optional<RangeEntry> range =
          it == slot.tables.end() ? std::nullopt : it->second.child(child);
      all = range.has_value() && p.overlaps(range->min, range->max);
    }
    if (all) out.push_back(child);
  }
}

bool DirqNode::believes_relevant(TreeId tree,
                                 const query::RangeQuery& q) const {
  const TreeSlot& slot = slots_.at(tree);
  if (q.region && has_position_ && !q.region->contains(x_, y_)) return false;
  auto it = slot.tables.find(q.type);
  if (it == slot.tables.end() || !it->second.own().has_value()) return false;
  const RangeEntry& own = *it->second.own();
  return q.overlaps(own.min, own.max);
}

bool DirqNode::believes_relevant(TreeId tree,
                                 const query::MultiQuery& q) const {
  const TreeSlot& slot = slots_.at(tree);
  if (q.predicates.empty()) return false;
  if (q.region && has_position_ && !q.region->contains(x_, y_)) return false;
  for (const query::AttributePredicate& p : q.predicates) {
    if (!std::binary_search(sensors_.begin(), sensors_.end(), p.type)) {
      return false;
    }
    auto it = slot.tables.find(p.type);
    if (it == slot.tables.end() || !it->second.own().has_value()) return false;
    const RangeEntry& own = *it->second.own();
    if (!p.overlaps(own.min, own.max)) return false;
  }
  return true;
}

void DirqNode::on_child_lost(TreeId tree, NodeId child, std::int64_t epoch) {
  TreeSlot& slot = slots_.at(tree);
  for (auto& [type, t] : slot.tables) {
    if (t.remove_child(child)) maybe_send_update(tree, type, epoch);
  }
  if (slot.child_boxes.erase(child) > 0) announce_location(tree, epoch);
  std::erase(slot.children, child);
}

void DirqNode::force_reannounce(TreeId tree, std::int64_t epoch) {
  TreeSlot& slot = slots_.at(tree);
  for (auto& [type, t] : slot.tables) {
    if (!t.has_any()) continue;
    const RangeAggregate agg = t.aggregate();
    t.mark_sent();
    if (slot.parent == kNoNode) continue;
    UpdateMessage u;
    u.from = id_;
    u.tree = tree;
    u.type = type;
    u.min = agg->min;
    u.max = agg->max;
    u.has_range = true;
    slot.controller->on_update_sent(type, epoch);
    if (send_) send_(id_, slot.parent, Message{u});
  }
  // The new parent also needs our subtree bounding box.
  slot.box_sent = false;
  announce_location(tree, epoch);
}

void DirqNode::attach_sensor(SensorType type) {
  const auto it = std::lower_bound(sensors_.begin(), sensors_.end(), type);
  if (it == sensors_.end() || *it != type) sensors_.insert(it, type);
}

void DirqNode::detach_sensor(SensorType type, std::int64_t epoch) {
  const auto s = std::lower_bound(sensors_.begin(), sensors_.end(), type);
  if (s == sensors_.end() || *s != type) return;
  sensors_.erase(s);
  for (TreeId tree = 0; tree < slots_.size(); ++tree) {
    TreeSlot& slot = slots_[tree];
    auto it = slot.tables.find(type);
    if (it == slot.tables.end()) continue;
    it->second.clear_own();
    maybe_send_update(tree, type, epoch);
  }
}

}  // namespace dirq::core
