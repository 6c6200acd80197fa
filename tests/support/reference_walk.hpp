// The reference epoch walk: a plain sequential two-pass walk over the
// whole network, the oracle DirqNetwork::process_epoch is checked against
// at every width (tests/core/parallel_reference_walk_test.cpp).
//
// It drives a DirqNetwork through public APIs only — node(), trees() and
// a sampling gate of its own per node — so it shares nothing with the
// engine it checks except the protocol state machine itself:
//
//   * the walk is tree 0's cached BFS order, extended by the members of
//     the other trees outside it (in their own BFS order), visited in
//     reverse — leaves first — skipping dead nodes;
//   * pass 1 gathers, per sensor type, the nodes whose gate says the
//     sample is due; one ReadingSource::readings call per type fills the
//     values; pass 2 re-runs the identical walk, feeding each reading to
//     DirqNode::sample (every tree slot) and ticking the gate, then
//     DirqNode::end_epoch.
//
// Deliveries go through the network's own transport, so ledgers,
// per-node tx/rx, the loss channel and the update counter move exactly as
// they do for any other sequential sender.
#pragma once

#include <cstdint>
#include <vector>

#include "core/network.hpp"
#include "core/sampling.hpp"
#include "data/reading_source.hpp"
#include "net/topology.hpp"

namespace dirq::core {

class ReferenceWalk {
 public:
  explicit ReferenceWalk(SamplingConfig gate) : cfg_(gate) {}

  /// Runs one epoch on `net` (built over `topo`) with readings from `env`.
  void epoch(DirqNetwork& net, const net::Topology& topo,
             const data::ReadingSource& env, std::int64_t epoch) {
    while (gates_.size() < topo.size()) gates_.emplace_back(cfg_);
    set_network_epoch(net, topo, epoch);
    const std::vector<NodeId> order = walk_order(net, topo);
    batch_nodes_.assign(env.type_count(), {});
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId u = *it;
      if (!topo.is_alive(u)) continue;
      for (SensorType t : topo.node(u).sensors) {
        if (gates_[u].enabled() && !gates_[u].should_sample(t, epoch)) continue;
        if (t >= batch_nodes_.size()) batch_nodes_.resize(t + 1);
        batch_nodes_[t].push_back(u);
      }
    }
    batch_values_.assign(batch_nodes_.size(), {});
    std::vector<std::size_t> cursor(batch_nodes_.size(), 0);
    for (std::size_t t = 0; t < batch_nodes_.size(); ++t) {
      if (batch_nodes_[t].empty()) continue;
      batch_values_[t].resize(batch_nodes_[t].size());
      env.readings(static_cast<SensorType>(t), batch_nodes_[t],
                   batch_values_[t]);
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId u = *it;
      if (!topo.is_alive(u)) continue;
      SamplingController& gate = gates_[u];
      DirqNode& node = net.node(u);
      for (SensorType t : topo.node(u).sensors) {
        if (!gate.enabled()) {
          node.sample(t, batch_values_[t][cursor[t]++], epoch);
          gate.count_sample();
          continue;
        }
        if (!gate.should_sample(t, epoch)) {
          gate.on_skip(t);
          continue;
        }
        const double reading = batch_values_[t][cursor[t]++];
        node.sample(t, reading, epoch);
        gate.on_sample(t, reading, node.controller().theta(t), epoch);
      }
      node.end_epoch(epoch);
    }
  }

  [[nodiscard]] std::int64_t samples_taken() const {
    std::int64_t total = 0;
    for (const SamplingController& g : gates_) total += g.samples_taken();
    return total;
  }
  [[nodiscard]] std::int64_t samples_skipped() const {
    std::int64_t total = 0;
    for (const SamplingController& g : gates_) total += g.samples_skipped();
    return total;
  }

 private:
  /// Tree 0's BFS order, then the other trees' members outside it.
  static std::vector<NodeId> walk_order(const DirqNetwork& net,
                                        const net::Topology& topo) {
    std::vector<NodeId> order;
    std::vector<char> seen(topo.size(), 0);
    for (TreeId t = 0; t < net.trees().count(); ++t) {
      for (NodeId u : net.trees().tree(t).bfs_order()) {
        if (seen[u]) continue;
        seen[u] = 1;
        order.push_back(u);
      }
    }
    return order;
  }

  /// Relays handle a child's update at the network's current epoch (ATC
  /// stamps its sent-update window with it). The network sets that epoch
  /// in every public entry point; re-attaching a sensor a node already
  /// carries is the one that changes nothing else.
  static void set_network_epoch(DirqNetwork& net, const net::Topology& topo,
                                std::int64_t epoch) {
    for (NodeId u = 0; u < net.size() && u < topo.size(); ++u) {
      if (!net.node(u).sensors().empty()) {
        net.handle_sensor_added(u, net.node(u).sensors().front(), epoch);
        return;
      }
    }
  }

  SamplingConfig cfg_;
  std::vector<SamplingController> gates_;
  std::vector<std::vector<NodeId>> batch_nodes_;
  std::vector<std::vector<double>> batch_values_;
};

}  // namespace dirq::core
