// Failure injection: a counter-keyed lossy-channel model that drops
// deliveries with a configurable probability, simulating CRC-failed
// receptions on a noisy wireless channel. DirqNetwork::set_loss installs
// it: every delivery rolls a verdict inside DirqNetwork::deliver, on the
// caller or inside one of the epoch engine's pool tasks.
//
// Semantics deliberately match radio reality: the *transmitter* always
// pays its cost, and the receiver's radio also spends the reception energy
// (rx is charged before the drop decision) — the frame simply never
// reaches the protocol. Used by robustness tests to show DirQ keeps
// functioning (stale ranges heal on the next threshold crossing; queries
// lose coverage gracefully, never crash) and by users who want a quick
// sensitivity estimate before a real-channel study.
//
// Order independence (the property that lets lossy epochs parallelise):
// each drop verdict is a pure function of the delivery's identity —
// (tree, from, to, per-key delivery sequence number) hashed through
// sim::counter_hash on a dedicated "loss" substream — never of how many
// unrelated deliveries happened before it. Reordering deliveries across
// distinct (tree, from, to) keys cannot change a single verdict, so the
// epoch engine's pool tasks (which each preserve their own keys'
// subsequence order) reproduce the one-thread drop pattern exactly
// (tests/core/lossy_order_test.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/counter_rng.hpp"
#include "sim/types.hpp"

namespace dirq::core {

/// The channel model: pure per-delivery verdicts and, per (tree, from,
/// to) key, the sequence counter that advances them and the key's drop
/// count. The offered/dropped totals are sums over those cells.
///
/// Threading contract: `drops` is const and pure. `next_drop` writes only
/// the cell stored under counters_[tree][from] — distinct (tree, from)
/// pairs touch disjoint state, which is exactly the write-disjointness
/// both parallel shard geometries guarantee (tree shards own whole tree
/// planes; subtree shards own whole sender nodes). Concurrent callers
/// must pre-size the planes from a sequential context (configure /
/// ensure_nodes); the lazy growth inside next_drop is for sequential use.
/// `offered` and `dropped` read every cell, so they belong to a
/// sequential context too.
class LossChannel {
 public:
  LossChannel(double drop_probability, sim::CounterRng rng)
      : drop_(drop_probability), rng_(rng) {}

  /// Pre-sizes the per-tree, per-sender counter planes (sequential
  /// context only). Idempotent; never shrinks.
  void configure(std::size_t tree_count, std::size_t node_count) {
    if (counters_.size() < tree_count) counters_.resize(tree_count);
    ensure_nodes(node_count);
  }

  /// Grows every tree plane to `node_count` senders (call after
  /// Topology::add_node, before the next parallel epoch).
  void ensure_nodes(std::size_t node_count) {
    for (auto& plane : counters_) {
      if (plane.size() < node_count) plane.resize(node_count);
    }
  }

  /// Pure verdict for the seq-th delivery on (tree, from, to). O(1),
  /// order-independent by construction.
  [[nodiscard]] bool drops(TreeId tree, NodeId from, NodeId to,
                           std::uint64_t seq) const noexcept {
    std::uint64_t s = sim::counter_hash(rng_.stream(),
                                        static_cast<std::uint64_t>(tree) + 1);
    s = sim::counter_hash(s, static_cast<std::uint64_t>(from) + 1);
    s = sim::counter_hash(s, static_cast<std::uint64_t>(to) + 1);
    const double u =
        static_cast<double>(sim::counter_hash(s, seq) >> 11) * 0x1.0p-53;
    return u < drop_;
  }

  /// Stateful form: advances the (tree, from, to) sequence counter,
  /// counts the delivery in its cell and returns its verdict.
  [[nodiscard]] bool next_drop(TreeId tree, NodeId from, NodeId to) {
    if (static_cast<std::size_t>(tree) >= counters_.size()) {
      counters_.resize(static_cast<std::size_t>(tree) + 1);
    }
    auto& plane = counters_[static_cast<std::size_t>(tree)];
    if (static_cast<std::size_t>(from) >= plane.size()) {
      plane.resize(static_cast<std::size_t>(from) + 1);
    }
    auto& cell = plane[static_cast<std::size_t>(from)];
    auto link = std::find_if(cell.begin(), cell.end(),
                             [to](const Link& l) { return l.to == to; });
    if (link == cell.end()) link = cell.insert(cell.end(), Link{to});
    const bool dropped = drops(tree, from, to, link->next_seq++);
    link->dropped += dropped ? 1 : 0;
    return dropped;
  }

  /// Deliveries that rolled a verdict, and those dropped, over all keys.
  [[nodiscard]] std::int64_t offered() const noexcept {
    return total(&Link::next_seq);
  }
  [[nodiscard]] std::int64_t dropped() const noexcept {
    return total(&Link::dropped);
  }
  [[nodiscard]] double drop_probability() const noexcept { return drop_; }

 private:
  /// One (tree, from, to) key: its next sequence number (= deliveries so
  /// far) and how many of them were dropped.
  struct Link {
    NodeId to = kNoNode;
    std::uint64_t next_seq = 0;
    std::uint64_t dropped = 0;
  };

  [[nodiscard]] std::int64_t total(std::uint64_t Link::*field) const noexcept {
    std::uint64_t sum = 0;
    for (const auto& plane : counters_) {
      for (const auto& cell : plane) {
        for (const Link& l : cell) sum += l.*field;
      }
    }
    return static_cast<std::int64_t>(sum);
  }

  double drop_;
  sim::CounterRng rng_;  // the "loss" substream of the experiment seed
  /// counters_[tree][from]: small per-recipient association — a sender
  /// talks to a handful of tree neighbours, so linear scan beats a map.
  std::vector<std::vector<std::vector<Link>>> counters_;
};

}  // namespace dirq::core
