// One DirQ protocol instance — the state machine running on every sensor
// node (paper §4).
//
// The node is transport-agnostic and clock-agnostic: the surrounding
// DirqNetwork feeds it readings, delivered messages and tree-maintenance
// events, and it emits messages through a send callback. All decisions use
// only locally available information (own readings, one-hop child tuples,
// the hourly EHr broadcast) — the paper's core autonomy claim.
//
// Multi-sink refactor: the per-tree protocol state (parent, children,
// range tables, subtree bounding box, threshold controller, EHr dedup)
// lives in TreeSlots keyed by a dense TreeId — one slot per spanning tree
// of the owning net::TreeSet. Readings, the sensor list and the sampling
// gate stay shared: a physical sample is taken once and observed by every
// slot, but each tree propagates its own updates with its own thresholds.
// Every per-tree entry point names its TreeId; the paper's single-sink
// deployment is the one-slot case, tree 0.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/atc.hpp"
#include "core/messages.hpp"
#include "core/range_table.hpp"
#include "sim/flat_map.hpp"
#include "sim/types.hpp"

namespace dirq::core {

class DirqNode {
 public:
  /// Sends a message to a one-hop neighbour (wired to the transport).
  using SendFn = std::function<void(NodeId from, NodeId to, const Message&)>;
  /// One transmission addressed to several children (query forwarding).
  using MulticastFn = std::function<void(NodeId from, const std::vector<NodeId>&,
                                         const Message&)>;
  /// Link-layer broadcast (used to re-flood the EHr estimate).
  using BroadcastFn = std::function<void(NodeId from, const Message&)>;

  /// Constructs with one tree slot (tree 0) owning `controller`.
  DirqNode(NodeId id, std::vector<SensorType> sensors,
           std::unique_ptr<ThetaController> controller);

  [[nodiscard]] NodeId id() const noexcept { return id_; }

  // --- wiring -------------------------------------------------------------

  void set_send(SendFn fn) { send_ = std::move(fn); }
  void set_multicast(MulticastFn fn) { multicast_ = std::move(fn); }
  void set_broadcast(BroadcastFn fn) { broadcast_ = std::move(fn); }

  /// Appends one more tree slot (the network adds a slot per extra sink).
  void add_slot(std::unique_ptr<ThetaController> controller);

  /// Tree position maintenance (driven by DirqNetwork on build/churn).
  void set_parent(TreeId tree, NodeId parent) {
    slots_.at(tree).parent = parent;
  }
  [[nodiscard]] NodeId parent(TreeId tree) const {
    return slots_.at(tree).parent;
  }
  void set_children(TreeId tree, std::vector<NodeId> children);
  [[nodiscard]] const std::vector<NodeId>& children(TreeId tree) const {
    return slots_.at(tree).children;
  }

  /// Physical position — the optional static location attribute (§2).
  /// DirQ works without it; with it, regional queries prune on subtree
  /// bounding boxes.
  void set_position(double x, double y) noexcept {
    x_ = x;
    y_ = y;
    has_position_ = true;
  }

  // --- sensing (paper §4.1, Fig. 1) ----------------------------------------

  /// One tree slot's view of a reading: it may re-centre the slot's own
  /// tuple and emit an Update Message toward the slot's parent if its
  /// aggregate moved beyond its theta. The slot's controller is not fed
  /// here: whoever drives the node feeds it (ThetaController::on_reading
  /// per reading, on_epoch at the node's end of epoch), as the epoch
  /// engine does with ATC's flat per-reading pass (AtcController::observe).
  /// Readings for a sensor the node does not carry are ignored. Slots
  /// share no mutable state, so tasks owning disjoint slots can call it on
  /// one node concurrently.
  void observe_slot(TreeId tree, SensorType type, double reading,
                    std::int64_t epoch);

  // --- message handling ----------------------------------------------------

  /// Delivered message from a one-hop neighbour; dispatches to the slot
  /// named by the message's TreeId tag.
  void handle(const Message& msg, NodeId from, std::int64_t epoch);

  // --- topology dynamics (paper §4.2) ---------------------------------------

  /// A one-hop child vanished in the given tree (cross-layer notification
  /// routed through the network): drop its tuples from that slot's
  /// tables, propagate any resulting aggregate changes.
  void on_child_lost(TreeId tree, NodeId child, std::int64_t epoch);

  /// Node re-parented after a tree repair: the slot's tables (and subtree
  /// bounding box) must be re-announced to the new parent regardless of
  /// theta (it knows nothing of us).
  void force_reannounce(TreeId tree, std::int64_t epoch);

  /// Announces the slot's subtree bounding box to its parent if it
  /// changed since the last announcement.
  void announce_location(TreeId tree, std::int64_t epoch);

  /// This node's current subtree bounding box in a tree (own point +
  /// child boxes); empty when nothing in the subtree is located.
  [[nodiscard]] net::BBox subtree_box(TreeId tree) const;

  /// Post-deployment sensor change on this node (§4.2 scalability).
  void attach_sensor(SensorType type);
  void detach_sensor(SensorType type, std::int64_t epoch);
  /// Attached sensor types, sorted ascending.
  [[nodiscard]] const std::vector<SensorType>& sensors() const noexcept {
    return sensors_;
  }

  // --- inspection ------------------------------------------------------------

  /// Range table for a type in a tree, or nullptr if the type is absent
  /// from this node's subtree there (tables exist lazily, Fig. 4).
  [[nodiscard]] const RangeTable* table(TreeId tree, SensorType type) const;

  /// True if this node believes its own readings may satisfy the query
  /// (its own stored tuple in the tree's slot overlaps every predicate's
  /// window, and it lies inside the region when one is given). This is
  /// DirQ's local relevance test; it can err toward extra deliveries
  /// (overshoot) because the tuple is theta-wide.
  [[nodiscard]] bool believes_relevant(TreeId tree,
                                       const query::MultiQuery& q) const;

  [[nodiscard]] ThetaController& controller(TreeId tree) {
    return *slots_.at(tree).controller;
  }
  [[nodiscard]] const ThetaController& controller(TreeId tree) const {
    return *slots_.at(tree).controller;
  }

  /// EHr rounds seen (flood dedup state), exposed for tests.
  [[nodiscard]] std::int64_t last_ehr_round(TreeId tree) const {
    return slots_.at(tree).last_ehr_round;
  }

 private:
  /// Everything DirQ keeps per spanning tree: position in the tree, the
  /// aggregated range tables, the location attribute, the threshold
  /// controller, and the EHr flood dedup round.
  struct TreeSlot {
    NodeId parent = kNoNode;
    std::vector<NodeId> children;
    sim::FlatMap<SensorType, RangeTable> tables;
    sim::FlatMap<NodeId, net::BBox> child_boxes;
    net::BBox sent_box = net::BBox::empty();
    bool box_sent = false;
    std::unique_ptr<ThetaController> controller;
    std::int64_t last_ehr_round = -1;
  };

  /// Emits an update/retraction for `type` in `tree` if the slot's table
  /// demands one.
  void maybe_send_update(TreeId tree, SensorType type, std::int64_t epoch);
  void handle_update(const UpdateMessage& u, NodeId from, std::int64_t epoch);
  /// Multicasts the received query message `msg` (which holds `qm`) to
  /// the slot's forwarding set, kept in forward_to_ so forwarding never
  /// allocates. A query that reaches the node while it still forwards one
  /// (a forwarding cycle) throws std::logic_error.
  void forward_query(const Message& msg, const QueryMessage& qm);
  /// Writes the children this node forwards `q` to in `tree` into `out`.
  void forwarding_set(TreeId tree, const query::MultiQuery& q,
                      std::vector<NodeId>& out) const;
  void handle_ehr(const EhrMessage& e, NodeId from, std::int64_t epoch);
  void handle_location(const LocationAnnounce& l, NodeId from,
                       std::int64_t epoch);
  /// Region pruning for a child: false only when the child's box is known
  /// and provably outside the region (unknown boxes are never pruned).
  [[nodiscard]] bool child_may_be_in_region(
      const TreeSlot& slot, NodeId child,
      const std::optional<net::BBox>& region) const;
  [[nodiscard]] bool slot_exists(TreeId tree) const noexcept {
    return tree < slots_.size();
  }

  NodeId id_;
  // Hot-path state is flat: sorted vectors / FlatMaps keyed by the dense
  // sensor-type and node-id domains, iterated every epoch by every node.
  std::vector<SensorType> sensors_;  // sorted, unique; shared by all slots
  std::vector<TreeSlot> slots_;      // one per spanning tree, TreeId-dense
  double x_ = 0.0, y_ = 0.0;
  bool has_position_ = false;
  bool forwarding_ = false;           // inside forward_query's multicast
  std::vector<NodeId> forward_to_;    // forward_query's target buffer
  SendFn send_;
  MulticastFn multicast_;
  BroadcastFn broadcast_;
};

}  // namespace dirq::core
