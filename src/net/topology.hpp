// Wireless network topology: node positions, alive flags, per-node sensor
// complements, and unit-disk radio connectivity.
//
// The paper's evaluation network is 50 nodes with one root, heterogeneous
// sensor complements (Fig. 4), and a tree bounded by k = 8 (max children)
// and d = 10 (max depth). Topology is mutable: DirQ's §4.2 dynamics are
// node death, node addition and post-deployment sensor addition/removal,
// all of which are first-class operations here with observer callbacks so
// the MAC and DirQ layers can react.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "net/spatial_index.hpp"
#include "sim/types.hpp"

namespace dirq::net {

/// Immutable-by-value description of a node.
struct Node {
  NodeId id = kNoNode;
  double x = 0.0;
  double y = 0.0;
  bool alive = true;
  std::vector<SensorType> sensors;  // sorted, unique

  [[nodiscard]] bool has_sensor(SensorType t) const noexcept;
};

/// Observer interface for topology mutations. The MAC layer registers one
/// to drive its neighbour tables; tests register one to assert event flow.
class TopologyObserver {
 public:
  virtual ~TopologyObserver() = default;
  virtual void on_node_died(NodeId /*id*/) {}
  virtual void on_node_added(NodeId /*id*/) {}
  virtual void on_sensor_added(NodeId /*id*/, SensorType /*t*/) {}
  virtual void on_sensor_removed(NodeId /*id*/, SensorType /*t*/) {}
};

class Topology {
 public:
  Topology() = default;

  /// Constructs from a node list; connectivity is unit-disk with the given
  /// radio range (two alive nodes are linked iff their Euclidean distance
  /// is <= radio_range).
  Topology(std::vector<Node> nodes, double radio_range);

  /// Constructs with an explicit link list (used for exact k-ary trees in
  /// the analytical validation, where a unit-disk embedding would add
  /// unwanted cross links). A link that names a dead node is dropped, as
  /// kill_node would drop it. Later add_node calls link by unit disk with
  /// radio_range 0, i.e. revived nodes start isolated.
  Topology(std::vector<Node> nodes,
           const std::vector<std::pair<NodeId, NodeId>>& links);

  // --- structure ---------------------------------------------------------

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t alive_count() const noexcept { return alive_count_; }
  [[nodiscard]] double radio_range() const noexcept { return radio_range_; }

  [[nodiscard]] const Node& node(NodeId id) const { return nodes_.at(id); }
  [[nodiscard]] bool is_alive(NodeId id) const { return nodes_.at(id).alive; }
  [[nodiscard]] std::span<const Node> nodes() const noexcept { return nodes_; }

  /// Alive neighbours of an alive node (empty for dead nodes).
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId id) const;

  /// Number of undirected links between alive nodes. Flooding reception
  /// cost is 2x this (paper Eq. 3).
  [[nodiscard]] std::size_t link_count() const noexcept { return link_count_; }

  /// True if the alive subgraph is connected (trivially true for <= 1 node).
  /// Dead nodes are never traversed.
  [[nodiscard]] bool is_connected() const;

  /// Reference O(n^2) unit-disk adjacency (the pre-spatial-index link
  /// construction), kept for the grid-equivalence regression tests: the
  /// grid-indexed rebuild must produce exactly these lists.
  [[nodiscard]] std::vector<std::vector<NodeId>> brute_force_adjacency() const;

  /// Maximum degree over alive nodes.
  [[nodiscard]] std::size_t max_degree() const;

  // --- dynamics (paper §4.2) ---------------------------------------------

  /// Marks a node dead and removes its links. Observers are notified.
  void kill_node(NodeId id);

  /// Revives a previously dead node (re-links by unit disk) or appends a
  /// brand-new node. Returns the node's id. Observers are notified.
  NodeId add_node(Node n);

  /// Post-deployment sensor mutation (§4.2: "any changes in sensor types
  /// such as the addition or removal of sensors also propagates up").
  void add_sensor(NodeId id, SensorType t);
  void remove_sensor(NodeId id, SensorType t);

  /// All sensor types present on any alive node, sorted and unique.
  [[nodiscard]] std::vector<SensorType> sensor_types_present() const;

  /// Alive nodes carrying the given sensor type.
  [[nodiscard]] std::vector<NodeId> nodes_with_sensor(SensorType t) const;

  void add_observer(TopologyObserver* obs) { observers_.push_back(obs); }
  void remove_observer(TopologyObserver* obs);

  [[nodiscard]] double distance(NodeId a, NodeId b) const;

 private:
  void rebuild_links();
  void link(NodeId a, NodeId b);
  void unlink_all(NodeId id);

  std::vector<Node> nodes_;
  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<TopologyObserver*> observers_;
  SpatialIndex index_;  // all node slots, dead or alive
  double radio_range_ = 1.0;
  std::size_t link_count_ = 0;
  std::size_t alive_count_ = 0;
};

}  // namespace dirq::net
