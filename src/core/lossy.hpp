// Failure injection: a counter-keyed lossy-channel model that drops
// deliveries with a configurable probability, simulating CRC-failed
// receptions on a noisy wireless channel. DirqNetwork::set_loss installs
// it: every delivery rolls a verdict inside DirqNetwork::deliver (or
// inside the epoch engine's pool tasks).
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

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/counter_rng.hpp"
#include "sim/types.hpp"

namespace dirq::core {

/// The channel model: pure per-delivery verdicts, the per-key sequence
/// counters that advance them, and the offered/dropped totals.
///
/// Threading contract: `drops` is const and pure. `next_drop` advances a
/// counter stored under counters_[tree][from] — distinct (tree, from)
/// pairs touch disjoint state, which is exactly the write-disjointness
/// both parallel shard geometries guarantee (tree shards own whole tree
/// planes; subtree shards own whole sender nodes). Concurrent callers
/// must pre-size the planes from a sequential context (configure /
/// ensure_nodes); the lazy growth inside next_drop is for sequential use.
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

  /// Stateful form: advances the (tree, from, to) sequence counter and
  /// returns that delivery's verdict. Does NOT touch the offered/dropped
  /// totals — parallel shards accumulate those locally and merge through
  /// add_counts; sequential callers pair it with note().
  [[nodiscard]] bool next_drop(TreeId tree, NodeId from, NodeId to) {
    if (static_cast<std::size_t>(tree) >= counters_.size()) {
      counters_.resize(static_cast<std::size_t>(tree) + 1);
    }
    auto& plane = counters_[static_cast<std::size_t>(tree)];
    if (static_cast<std::size_t>(from) >= plane.size()) {
      plane.resize(static_cast<std::size_t>(from) + 1);
    }
    auto& cell = plane[static_cast<std::size_t>(from)];
    for (auto& [peer, next_seq] : cell) {
      if (peer == to) return drops(tree, from, to, next_seq++);
    }
    cell.emplace_back(to, 1);
    return drops(tree, from, to, 0);
  }

  /// Books one delivery into the totals (sequential path).
  void note(bool dropped) noexcept {
    ++offered_;
    if (dropped) ++dropped_;
  }

  /// Merges a shard's locally-accumulated totals (called in fixed shard
  /// order at the parallel merge, so the totals stay deterministic).
  void add_counts(std::int64_t offered, std::int64_t dropped) noexcept {
    offered_ += offered;
    dropped_ += dropped;
  }

  [[nodiscard]] std::int64_t offered() const noexcept { return offered_; }
  [[nodiscard]] std::int64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] double drop_probability() const noexcept { return drop_; }

 private:
  double drop_;
  sim::CounterRng rng_;  // the "loss" substream of the experiment seed
  /// counters_[tree][from]: small (to, next-seq) association — a sender
  /// talks to a handful of tree neighbours, so linear scan beats a map.
  std::vector<std::vector<std::vector<std::pair<NodeId, std::uint64_t>>>>
      counters_;
  std::int64_t offered_ = 0;
  std::int64_t dropped_ = 0;
};

}  // namespace dirq::core
