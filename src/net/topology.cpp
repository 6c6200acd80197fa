#include "net/topology.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dirq::net {

bool Node::has_sensor(SensorType t) const noexcept {
  return std::binary_search(sensors.begin(), sensors.end(), t);
}

Topology::Topology(std::vector<Node> nodes, double radio_range)
    : nodes_(std::move(nodes)), radio_range_(radio_range) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].id = static_cast<NodeId>(i);
    std::sort(nodes_[i].sensors.begin(), nodes_[i].sensors.end());
    nodes_[i].sensors.erase(
        std::unique(nodes_[i].sensors.begin(), nodes_[i].sensors.end()),
        nodes_[i].sensors.end());
  }
  rebuild_links();
}

Topology::Topology(std::vector<Node> nodes,
                   const std::vector<std::pair<NodeId, NodeId>>& links)
    : nodes_(std::move(nodes)), radio_range_(0.0) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].id = static_cast<NodeId>(i);
    std::sort(nodes_[i].sensors.begin(), nodes_[i].sensors.end());
    nodes_[i].sensors.erase(
        std::unique(nodes_[i].sensors.begin(), nodes_[i].sensors.end()),
        nodes_[i].sensors.end());
    if (nodes_[i].alive) ++alive_count_;
  }
  adjacency_.assign(nodes_.size(), {});
  for (auto [a, b] : links) {
    if (a == b) throw std::invalid_argument("Topology: self link");
    if (a >= nodes_.size() || b >= nodes_.size())
      throw std::invalid_argument("Topology: link endpoint out of range");
    // A dead node has no links, as after kill_node.
    if (nodes_[a].alive && nodes_[b].alive) link(a, b);
  }
  // Index the positions anyway: add_node revivals re-link by unit disk.
  std::vector<double> xs, ys;
  xs.reserve(nodes_.size());
  ys.reserve(nodes_.size());
  for (const Node& n : nodes_) {
    xs.push_back(n.x);
    ys.push_back(n.y);
  }
  index_.build(xs, ys, radio_range_);
}

std::span<const NodeId> Topology::neighbors(NodeId id) const {
  return adjacency_.at(id);
}

bool Topology::is_connected() const {
  if (alive_count_ <= 1) return true;
  NodeId start = kNoNode;
  for (const Node& n : nodes_) {
    if (n.alive) {
      start = n.id;
      break;
    }
  }
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeId> stack{start};
  seen[start] = true;
  std::size_t reached = 0;
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    ++reached;
    for (NodeId v : adjacency_[u]) {
      // Links only join alive nodes; the alive filter is a guard that
      // matches SpanningTree::rebuild's.
      if (!seen[v] && nodes_[v].alive) {
        seen[v] = true;
        stack.push_back(v);
      }
    }
  }
  return reached == alive_count_;
}

std::size_t Topology::max_degree() const {
  std::size_t best = 0;
  for (const Node& n : nodes_) {
    if (n.alive) best = std::max(best, adjacency_[n.id].size());
  }
  return best;
}

void Topology::kill_node(NodeId id) {
  Node& n = nodes_.at(id);
  if (!n.alive) return;
  n.alive = false;
  --alive_count_;
  unlink_all(id);
  for (TopologyObserver* obs : observers_) obs->on_node_died(id);
}

NodeId Topology::add_node(Node n) {
  NodeId id;
  if (n.id != kNoNode && n.id < nodes_.size()) {
    // Revival of an existing (dead) slot, possibly redeployed elsewhere.
    id = n.id;
    Node& slot = nodes_[id];
    if (slot.alive) throw std::invalid_argument("add_node: node already alive");
    const double old_x = slot.x, old_y = slot.y;
    n.alive = true;
    std::sort(n.sensors.begin(), n.sensors.end());
    n.sensors.erase(std::unique(n.sensors.begin(), n.sensors.end()), n.sensors.end());
    slot = std::move(n);
    index_.move(id, old_x, old_y, slot.x, slot.y);
  } else {
    id = static_cast<NodeId>(nodes_.size());
    n.id = id;
    n.alive = true;
    std::sort(n.sensors.begin(), n.sensors.end());
    n.sensors.erase(std::unique(n.sensors.begin(), n.sensors.end()), n.sensors.end());
    index_.insert(id, n.x, n.y);
    nodes_.push_back(std::move(n));
    adjacency_.emplace_back();
  }
  ++alive_count_;
  std::vector<NodeId> cand;
  index_.candidates(nodes_[id].x, nodes_[id].y, cand);
  for (NodeId other : cand) {
    if (other == id || !nodes_[other].alive) continue;
    if (distance(id, other) <= radio_range_) link(id, other);
  }
  for (TopologyObserver* obs : observers_) obs->on_node_added(id);
  return id;
}

void Topology::add_sensor(NodeId id, SensorType t) {
  Node& n = nodes_.at(id);
  auto it = std::lower_bound(n.sensors.begin(), n.sensors.end(), t);
  if (it != n.sensors.end() && *it == t) return;
  n.sensors.insert(it, t);
}

void Topology::remove_sensor(NodeId id, SensorType t) {
  Node& n = nodes_.at(id);
  auto it = std::lower_bound(n.sensors.begin(), n.sensors.end(), t);
  if (it == n.sensors.end() || *it != t) return;
  n.sensors.erase(it);
}

std::vector<SensorType> Topology::sensor_types_present() const {
  // A handful of types over many nodes: merge each into a small sorted
  // set instead of sorting every alive node's list.
  std::vector<SensorType> out;
  for (const Node& n : nodes_) {
    if (!n.alive) continue;
    for (SensorType t : n.sensors) {
      const auto it = std::lower_bound(out.begin(), out.end(), t);
      if (it == out.end() || *it != t) out.insert(it, t);
    }
  }
  return out;
}

std::vector<NodeId> Topology::nodes_with_sensor(SensorType t) const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_) {
    if (n.alive && n.has_sensor(t)) out.push_back(n.id);
  }
  return out;
}

void Topology::remove_observer(TopologyObserver* obs) {
  std::erase(observers_, obs);
}

double Topology::distance(NodeId a, NodeId b) const {
  const Node& na = nodes_.at(a);
  const Node& nb = nodes_.at(b);
  return std::hypot(na.x - nb.x, na.y - nb.y);
}

void Topology::rebuild_links() {
  adjacency_.assign(nodes_.size(), {});
  link_count_ = 0;
  alive_count_ = 0;
  std::vector<double> xs, ys;
  xs.reserve(nodes_.size());
  ys.reserve(nodes_.size());
  for (const Node& n : nodes_) {
    if (n.alive) ++alive_count_;
    xs.push_back(n.x);
    ys.push_back(n.y);
  }
  index_.build(xs, ys, radio_range_);
  // Grid cells replace the all-pairs scan: candidate lists are a superset
  // of the true neighbourhood, and the exact distance filter below makes
  // the resulting adjacency byte-identical to an all-pairs scan
  // (links are undirected, so each pair is linked once, from its lower id).
  std::vector<NodeId> cand;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].alive) continue;
    cand.clear();
    index_.candidates(nodes_[i].x, nodes_[i].y, cand);
    for (NodeId j : cand) {
      if (j <= i || !nodes_[j].alive) continue;
      if (distance(static_cast<NodeId>(i), j) <= radio_range_) {
        link(static_cast<NodeId>(i), j);
      }
    }
  }
}

void Topology::link(NodeId a, NodeId b) {
  adjacency_[a].insert(
      std::lower_bound(adjacency_[a].begin(), adjacency_[a].end(), b), b);
  adjacency_[b].insert(
      std::lower_bound(adjacency_[b].begin(), adjacency_[b].end(), a), a);
  ++link_count_;
}

void Topology::unlink_all(NodeId id) {
  for (NodeId v : adjacency_[id]) {
    auto& adj = adjacency_[v];
    adj.erase(std::lower_bound(adj.begin(), adj.end(), id));
    --link_count_;
  }
  adjacency_[id].clear();
}

}  // namespace dirq::net
