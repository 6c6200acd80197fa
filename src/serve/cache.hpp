// Range-result cache for the serve front-end.
//
// A cached entry stores, for one answered range query, the believed
// sources together with the own-range tuple ([min, max] advertised to the
// tree) each of them held when the answer was produced. That tuple is the
// exact forwarding predicate DirQ evaluates at the node itself, which
// gives the cache a containment rule that is *exact* rather than
// heuristic: as long as no range table changed since the answer was
// captured, a node believes a narrower window W' ⊆ W if and only if it
// believed W and its own tuple overlaps W' — every ancestor aggregate
// contains the descendant tuples, so the path tests that admitted the node
// under W still admit it under any sub-window its own tuple meets. A
// superset answer therefore serves every subset query by filtering the
// stored tuples, with no network traffic at all.
//
// Staleness is tracked without a change-feed: each entry snapshots the
// network-wide Update Message counter at creation. A lookup that finds the
// counter unmoved is Fresh (provably no table changed anywhere — the
// containment rule is exact and the hit never expires). A moved counter
// degrades the entry to Stale, served only within `stale_epochs` of its
// creation; beyond that it expires. The counter is a deliberately blunt
// instrument — any update anywhere demotes every entry — but it is exact,
// costs nothing on the hot path, and is byte-identical across thread
// counts because the parallel epoch engine merges the counter
// deterministically.
//
// Multi-attribute and region-constrained queries are not cacheable here
// (their admission involves per-type aggregates and bounding boxes that
// the single-tuple containment rule does not cover); the front-end counts
// them as `uncacheable` and injects them directly.
//
// Cost of a lookup: one small-map probe for the queried sensor type, then
// one FIFO scan over that type's contiguous key records (window, creation
// epoch, counter snapshot) — entries of other types and the stored
// sources are not touched. The front-end inserts with a nondecreasing
// epoch and counter, so the entries that can still answer (Fresh: the
// counter equals now; Stale: created within `stale_epochs`) form a suffix
// of each type's list. While every insert into a list kept that order and
// the lookup's epoch and counter are not behind its newest entry, a binary
// search finds the suffix and the scan covers only it; a miss then reads
// the expired prefix for containment alone (the `expired` count). Any
// other call order scans the whole list, with the same result. A hit
// copies nothing: the front-end needs only
// the hit kind and the tree, and the filtered answer is computed on
// request (CacheLookup::answer) from the chosen entry's stored sources.
// Eviction stays global FIFO: the oldest entry overall is the front of
// its type's list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/flat_map.hpp"
#include "sim/types.hpp"

namespace dirq::serve {

/// One believed source with the own-range tuple it advertised when the
/// answer was captured.
struct CachedSource {
  NodeId node = 0;
  double tuple_min = 0.0;
  double tuple_max = 0.0;
};

struct CacheStats {
  std::int64_t fresh_hits = 0;        // update counter unmoved: exact
  std::int64_t stale_hits = 0;        // counter moved, within stale bound
  std::int64_t containment_hits = 0;  // hit served from a strict superset
  std::int64_t misses = 0;
  std::int64_t expired = 0;     // would have hit, but past the stale bound
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;   // FIFO displacement at capacity
  std::int64_t uncacheable = 0; // multi-attribute / regional traffic

  [[nodiscard]] std::int64_t hits() const noexcept {
    return fresh_hits + stale_hits;
  }
  [[nodiscard]] std::int64_t lookups() const noexcept {
    return hits() + misses;
  }
};

struct CacheLookup {
  enum class Kind { Miss, Fresh, Stale };
  Kind kind = Kind::Miss;
  /// Sink tree the cached answer was produced on.
  TreeId tree = 0;

  /// Believed sources for the queried window, sorted by node id (empty on
  /// a Miss): the chosen entry's stored sources whose own tuple overlaps
  /// the window. Filtered on each call from the cache's storage, so it is
  /// valid only until the cache's next insert() or invalidate_all().
  [[nodiscard]] std::vector<NodeId> answer() const;

 private:
  friend class ResultCache;
  std::span<const CachedSource> sources_;  // chosen entry's, sorted by node
  double lo_ = 0.0;
  double hi_ = 0.0;
};

class ResultCache {
 public:
  /// `max_entries` bounds memory (FIFO eviction); `stale_epochs` bounds
  /// how long an entry may serve hits after the update counter moves.
  ResultCache(std::size_t max_entries, std::int64_t stale_epochs);

  /// Looks up believed sources for (type, [lo, hi]) at virtual time
  /// `epoch`, given the network's current Update Message counter. Entries
  /// are matched by containment (entry window ⊇ query window); the first
  /// Fresh match wins, else the first Stale one.
  CacheLookup lookup(SensorType type, double lo, double hi,
                     std::int64_t epoch, std::int64_t updates_now);

  /// Records an answered query. `sources` carries each believed source's
  /// own tuple as read back from its range table immediately after the
  /// answer; it need not be sorted.
  void insert(SensorType type, double lo, double hi, TreeId tree,
              std::int64_t epoch, std::int64_t updates_at_answer,
              std::vector<CachedSource> sources);

  /// Drops every entry (topology churn: tuples may now belong to dead
  /// nodes or re-parented subtrees, so containment no longer holds).
  void invalidate_all();

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
  /// Counts the uncacheable traffic the front-end routed around the cache.
  void note_uncacheable() { ++stats_.uncacheable; }

 private:
  /// What the lookup scan reads: one small record per entry.
  struct Key {
    double lo = 0.0;
    double hi = 0.0;
    std::int64_t created_epoch = 0;
    std::int64_t updates_at_create = 0;
  };
  /// What only a hit (and answer()) reads.
  struct Body {
    TreeId tree = 0;
    std::vector<CachedSource> sources;  // sorted by node id
  };
  /// One sensor type's entries in FIFO order, from `head` on (popped
  /// slots before it are compacted away once they are half the list).
  /// `ordered`: every insert so far came with an epoch and a counter no
  /// smaller than the previous entry's.
  struct TypeList {
    std::vector<Key> keys;
    std::vector<Body> bodies;
    std::size_t head = 0;
    bool ordered = true;
  };

  void evict_oldest();

  std::size_t max_entries_;
  std::int64_t stale_epochs_;
  sim::FlatMap<SensorType, TypeList> lists_;
  // Global FIFO of entry types, a ring: order_[order_head_] is the oldest
  // entry's type. order_head_ stays 0 until the ring is full; from then
  // on each insert evicts the oldest entry and takes its slot.
  std::vector<SensorType> order_;
  std::size_t order_head_ = 0;
  CacheStats stats_;
};

}  // namespace dirq::serve
