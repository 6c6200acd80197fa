// ResultCache semantics: freshness via the update-counter snapshot,
// containment filtering by stored own tuples, staleness expiry, FIFO
// eviction, and the stats ledger.
#include "serve/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace dirq::serve {
namespace {

std::vector<CachedSource> three_sources() {
  // Own tuples chosen so sub-window filtering is observable:
  //   node 3: [10, 15], node 5: [18, 22], node 9: [24, 30]
  return {{5, 18.0, 22.0}, {3, 10.0, 15.0}, {9, 24.0, 30.0}};
}

TEST(ResultCache, MissOnEmptyAndOnNonContainingEntry) {
  ResultCache cache(8, 64);
  EXPECT_EQ(cache.lookup(0, 10.0, 20.0, 0, 0).kind, CacheLookup::Kind::Miss);
  cache.insert(0, 10.0, 20.0, 0, 0, 0, three_sources());
  // Wider than the stored window -> not answerable by containment.
  EXPECT_EQ(cache.lookup(0, 5.0, 20.0, 1, 0).kind, CacheLookup::Kind::Miss);
  // Different type -> miss even with identical bounds.
  EXPECT_EQ(cache.lookup(1, 10.0, 20.0, 1, 0).kind, CacheLookup::Kind::Miss);
  EXPECT_EQ(cache.stats().misses, 3);
  EXPECT_EQ(cache.stats().insertions, 1);
}

TEST(ResultCache, FreshExactHitReturnsAllSourcesSorted) {
  ResultCache cache(8, 64);
  cache.insert(0, 10.0, 30.0, 2, 5, 17, three_sources());
  const CacheLookup hit = cache.lookup(0, 10.0, 30.0, 6, 17);
  EXPECT_EQ(hit.kind, CacheLookup::Kind::Fresh);
  EXPECT_EQ(hit.tree, 2);
  EXPECT_EQ(hit.answer(), (std::vector<NodeId>{3, 5, 9}));
  EXPECT_EQ(cache.stats().fresh_hits, 1);
  EXPECT_EQ(cache.stats().containment_hits, 0);
}

TEST(ResultCache, ContainmentFiltersByStoredTuples) {
  ResultCache cache(8, 64);
  cache.insert(0, 10.0, 30.0, 0, 0, 0, three_sources());
  // [16, 23] overlaps node 5's [18, 22] only.
  const CacheLookup hit = cache.lookup(0, 16.0, 23.0, 1, 0);
  EXPECT_EQ(hit.kind, CacheLookup::Kind::Fresh);
  EXPECT_EQ(hit.answer(), (std::vector<NodeId>{5}));
  EXPECT_EQ(cache.stats().containment_hits, 1);
  // [14, 25] clips all three tuples.
  EXPECT_EQ(cache.lookup(0, 14.0, 25.0, 1, 0).answer(),
            (std::vector<NodeId>{3, 5, 9}));
  // [15.5, 17.5] falls between tuples: a hit with an empty answer.
  const CacheLookup gap = cache.lookup(0, 15.5, 17.5, 1, 0);
  EXPECT_EQ(gap.kind, CacheLookup::Kind::Fresh);
  EXPECT_TRUE(gap.answer().empty());
}

TEST(ResultCache, MovedUpdateCounterDegradesToStaleThenExpires) {
  ResultCache cache(8, 10);
  cache.insert(0, 10.0, 30.0, 0, 100, 17, three_sources());
  // Counter unmoved: Fresh at any age.
  EXPECT_EQ(cache.lookup(0, 10.0, 30.0, 5000, 17).kind,
            CacheLookup::Kind::Fresh);
  // Counter moved, age within the bound: Stale (still answered).
  EXPECT_EQ(cache.lookup(0, 10.0, 30.0, 105, 18).kind,
            CacheLookup::Kind::Stale);
  EXPECT_EQ(cache.stats().stale_hits, 1);
  // Counter moved, age beyond the bound: expired -> miss.
  const CacheLookup old = cache.lookup(0, 10.0, 30.0, 111, 18);
  EXPECT_EQ(old.kind, CacheLookup::Kind::Miss);
  EXPECT_EQ(cache.stats().expired, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(ResultCache, FreshEntryBeatsAnEarlierStaleOne) {
  ResultCache cache(8, 64);
  cache.insert(0, 10.0, 30.0, 0, 0, 5, three_sources());   // stale at t=9
  cache.insert(0, 10.0, 30.0, 1, 8, 9, three_sources());   // fresh at t=9
  const CacheLookup hit = cache.lookup(0, 12.0, 20.0, 9, 9);
  EXPECT_EQ(hit.kind, CacheLookup::Kind::Fresh);
  EXPECT_EQ(hit.tree, 1);
}

TEST(ResultCache, FifoEvictionBoundsTheCache) {
  ResultCache cache(4, 64);
  for (int i = 0; i < 10; ++i) {
    cache.insert(0, 10.0 * i, 10.0 * i + 5.0, 0, i, 0, {});
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 6);
  // The oldest six windows are gone; the newest four remain.
  EXPECT_EQ(cache.lookup(0, 0.0, 5.0, 10, 0).kind, CacheLookup::Kind::Miss);
  EXPECT_EQ(cache.lookup(0, 90.0, 95.0, 10, 0).kind,
            CacheLookup::Kind::Fresh);
}

TEST(ResultCache, InvalidateAllDropsEverything) {
  ResultCache cache(8, 64);
  cache.insert(0, 10.0, 30.0, 0, 0, 0, three_sources());
  ASSERT_EQ(cache.lookup(0, 10.0, 30.0, 1, 0).kind, CacheLookup::Kind::Fresh);
  cache.invalidate_all();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(0, 10.0, 30.0, 1, 0).kind, CacheLookup::Kind::Miss);
}

/// The reference implementation: the original FIFO deque scan that
/// materialised the filtered answer on every hit. ResultCache must agree
/// with it on every lookup and every counter.
class ReferenceCache {
 public:
  struct Result {
    CacheLookup::Kind kind = CacheLookup::Kind::Miss;
    TreeId tree = 0;
    std::vector<NodeId> answer;
  };

  ReferenceCache(std::size_t max_entries, std::int64_t stale_epochs)
      : max_entries_(max_entries), stale_epochs_(stale_epochs) {}

  Result lookup(SensorType type, double lo, double hi, std::int64_t epoch,
                std::int64_t updates_now) {
    const Entry* fresh = nullptr;
    const Entry* stale = nullptr;
    bool saw_expired = false;
    for (const Entry& e : entries_) {
      if (e.type != type || e.lo > lo || e.hi < hi) continue;
      if (e.updates_at_create == updates_now) {
        fresh = &e;
        break;
      }
      if (epoch - e.created_epoch <= stale_epochs_) {
        if (stale == nullptr) stale = &e;
      } else {
        saw_expired = true;
      }
    }
    const Entry* chosen = fresh != nullptr ? fresh : stale;
    if (chosen == nullptr) {
      ++stats.misses;
      if (saw_expired) ++stats.expired;
      return {};
    }
    Result out;
    out.kind = fresh != nullptr ? CacheLookup::Kind::Fresh
                                : CacheLookup::Kind::Stale;
    out.tree = chosen->tree;
    for (const CachedSource& s : chosen->sources) {
      if (s.tuple_min <= hi && s.tuple_max >= lo) out.answer.push_back(s.node);
    }
    ++(fresh != nullptr ? stats.fresh_hits : stats.stale_hits);
    if (chosen->lo < lo || chosen->hi > hi) ++stats.containment_hits;
    return out;
  }

  void insert(SensorType type, double lo, double hi, TreeId tree,
              std::int64_t epoch, std::int64_t updates,
              std::vector<CachedSource> sources) {
    std::sort(sources.begin(), sources.end(),
              [](const CachedSource& a, const CachedSource& b) {
                return a.node < b.node;
              });
    entries_.push_back({type, lo, hi, tree, epoch, updates, std::move(sources)});
    ++stats.insertions;
    while (entries_.size() > max_entries_) {
      entries_.pop_front();
      ++stats.evictions;
    }
  }

  void invalidate_all() { entries_.clear(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  CacheStats stats;

 private:
  struct Entry {
    SensorType type;
    double lo, hi;
    TreeId tree;
    std::int64_t created_epoch, updates_at_create;
    std::vector<CachedSource> sources;
  };
  std::size_t max_entries_;
  std::int64_t stale_epochs_;
  std::deque<Entry> entries_;
};

void expect_stats_equal(const CacheStats& a, const CacheStats& b,
                        const std::string& where) {
  EXPECT_EQ(a.fresh_hits, b.fresh_hits) << where;
  EXPECT_EQ(a.stale_hits, b.stale_hits) << where;
  EXPECT_EQ(a.containment_hits, b.containment_hits) << where;
  EXPECT_EQ(a.misses, b.misses) << where;
  EXPECT_EQ(a.expired, b.expired) << where;
  EXPECT_EQ(a.insertions, b.insertions) << where;
  EXPECT_EQ(a.evictions, b.evictions) << where;
  EXPECT_EQ(a.uncacheable, b.uncacheable) << where;
}

TEST(ResultCache, MatchesReferenceScanOnRandomOperationSequences) {
  // Seeded random insert/lookup/invalidate/uncacheable sequences with
  // non-monotone epochs and update counters, repeated and nested windows,
  // 1-6 sensor types plus one far-off type id, and capacities 1-8 (so the
  // ring wraps and evictions cross types), compared after every operation.
  std::int64_t hits = 0, evictions = 0, expired = 0, cross_type_evictions = 0;
  for (std::uint64_t seed = 1; seed <= 96; ++seed) {
    sim::Rng rng(seed);
    const auto capacity = static_cast<std::size_t>(1 + (seed - 1) % 8);
    const auto type_count = static_cast<SensorType>(1 + (seed - 1) / 8 % 6);
    const std::int64_t stale_epochs = rng.uniform_int(0, 6);
    ResultCache cache(capacity, stale_epochs);
    ReferenceCache ref(capacity, stale_epochs);
    std::vector<SensorType> types(type_count);
    std::iota(types.begin(), types.end(), SensorType{0});
    types.push_back(60000);  // far from the dense ids
    std::deque<SensorType> fifo;  // entry types, oldest first
    // A few base windows per type, each with nested sub-windows, so
    // lookups see exact, containing and non-containing entries.
    struct Window {
      SensorType type;
      double lo, hi;
    };
    std::vector<Window> windows;
    for (int b = 0; b < 8; ++b) {
      const SensorType type = types[rng.index(types.size())];
      const double lo = static_cast<double>(rng.uniform_int(0, 20));
      const double hi = lo + static_cast<double>(rng.uniform_int(0, 12));
      windows.push_back({type, lo, hi});
      windows.push_back({type, lo + (hi - lo) / 4.0, hi - (hi - lo) / 4.0});
      windows.push_back({type, lo, lo + (hi - lo) / 2.0});
    }
    for (int op = 0; op < 300; ++op) {
      const Window& w = windows[rng.index(windows.size())];
      const std::int64_t epoch = rng.uniform_int(0, 12);
      const std::int64_t updates = rng.uniform_int(0, 3);
      const double pick = rng.uniform(0.0, 1.0);
      const std::string where =
          "seed " + std::to_string(seed) + " op " + std::to_string(op);
      if (pick < 0.35) {
        const auto tree = static_cast<TreeId>(rng.uniform_int(0, 3));
        std::vector<CachedSource> sources;
        const auto n = rng.uniform_int(0, 6);
        for (std::int64_t i = 0; i < n; ++i) {
          // Distinct node ids in shuffled order; tuples straddle the window.
          const double c = rng.uniform(w.lo - 3.0, w.hi + 3.0);
          sources.push_back({static_cast<NodeId>((i * 7 + n) % 11 + 11 * i),
                             c - 1.0, c + 1.0});
        }
        std::reverse(sources.begin(), sources.end());
        if (fifo.size() == capacity) {
          cross_type_evictions += fifo.front() != w.type;
          fifo.pop_front();
        }
        fifo.push_back(w.type);
        cache.insert(w.type, w.lo, w.hi, tree, epoch, updates, sources);
        ref.insert(w.type, w.lo, w.hi, tree, epoch, updates, sources);
      } else if (pick < 0.93) {
        const CacheLookup got = cache.lookup(w.type, w.lo, w.hi, epoch, updates);
        const ReferenceCache::Result want =
            ref.lookup(w.type, w.lo, w.hi, epoch, updates);
        ASSERT_EQ(got.kind, want.kind) << where;
        EXPECT_EQ(got.tree, want.tree) << where;
        EXPECT_EQ(got.answer(), want.answer) << where;
      } else if (pick < 0.97) {
        cache.note_uncacheable();
        ++ref.stats.uncacheable;
      } else {
        cache.invalidate_all();
        ref.invalidate_all();
        fifo.clear();
      }
      ASSERT_EQ(cache.size(), ref.size()) << where;
      expect_stats_equal(cache.stats(), ref.stats, where);
      if (::testing::Test::HasFailure()) return;
    }
    hits += ref.stats.hits();
    evictions += ref.stats.evictions;
    expired += ref.stats.expired;
  }
  // The sequences reached every path.
  EXPECT_GT(hits, 0);
  EXPECT_GT(evictions, 0);
  EXPECT_GT(expired, 0);
  EXPECT_GT(cross_type_evictions, 0);
}

TEST(ResultCache, LiveSuffixScanMatchesReferenceOnOrderedSequences) {
  // The front end's call order: epochs and update counters never go back,
  // so the cache scans only each type's live suffix (and, on a miss, the
  // expired prefix for containment). Seeded insert/lookup sequences over
  // 3 types, stale bounds 0, 1 and 64 and capacities up to 1 024, compared
  // with the reference scan after every operation.
  CacheStats total;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    sim::Rng rng(1000 + seed);
    const std::int64_t stale_epochs =
        std::array<std::int64_t, 3>{0, 1, 64}[seed % 3];
    const std::size_t capacity =
        std::array<std::size_t, 4>{1, 8, 256, 1024}[seed / 3 % 4];
    ResultCache cache(capacity, stale_epochs);
    ReferenceCache ref(capacity, stale_epochs);
    struct Window {
      SensorType type;
      double lo, hi;
    };
    std::vector<Window> windows;
    for (int b = 0; b < 12; ++b) {
      const auto type = static_cast<SensorType>(rng.uniform_int(0, 2));
      const double lo = static_cast<double>(rng.uniform_int(0, 20));
      const double hi = lo + static_cast<double>(rng.uniform_int(1, 12));
      windows.push_back({type, lo, hi});
      windows.push_back({type, lo + (hi - lo) / 4.0, hi - (hi - lo) / 4.0});
    }
    std::int64_t epoch = 0;
    std::int64_t updates = 0;
    for (int op = 0; op < 1500; ++op) {
      // Time and the counter move forward in uneven steps, often not at
      // all, so entries stay Fresh for a while, then Stale, then expire.
      if (rng.bernoulli(0.3)) {
        epoch +=
            rng.uniform_int(1, std::max<std::int64_t>(2, stale_epochs / 8));
      }
      if (rng.bernoulli(0.15)) updates += rng.uniform_int(1, 3);
      const Window& w = windows[rng.index(windows.size())];
      const std::string where =
          "seed " + std::to_string(seed) + " op " + std::to_string(op);
      if (rng.bernoulli(0.3)) {
        std::vector<CachedSource> sources;
        for (NodeId i = 0; i < 4; ++i) {
          const double c = rng.uniform(w.lo - 2.0, w.hi + 2.0);
          sources.push_back({3 - i, c - 1.0, c + 1.0});
        }
        const auto tree = static_cast<TreeId>(rng.uniform_int(0, 3));
        cache.insert(w.type, w.lo, w.hi, tree, epoch, updates, sources);
        ref.insert(w.type, w.lo, w.hi, tree, epoch, updates, sources);
      } else {
        const CacheLookup got =
            cache.lookup(w.type, w.lo, w.hi, epoch, updates);
        const ReferenceCache::Result want =
            ref.lookup(w.type, w.lo, w.hi, epoch, updates);
        ASSERT_EQ(got.kind, want.kind) << where;
        EXPECT_EQ(got.tree, want.tree) << where;
        EXPECT_EQ(got.answer(), want.answer) << where;
      }
      ASSERT_EQ(cache.size(), ref.size()) << where;
      expect_stats_equal(cache.stats(), ref.stats, where);
      if (::testing::Test::HasFailure()) return;
    }
    total.fresh_hits += ref.stats.fresh_hits;
    total.stale_hits += ref.stats.stale_hits;
    total.expired += ref.stats.expired;
    total.containment_hits += ref.stats.containment_hits;
  }
  // Every outcome the suffix bounds decide was reached, many times.
  EXPECT_GE(total.fresh_hits, 500);
  EXPECT_GE(total.stale_hits, 500);
  EXPECT_GE(total.expired, 500);
  EXPECT_GE(total.containment_hits, 500);
}

TEST(ResultCache, RejectsDegenerateConstruction) {
  EXPECT_THROW(ResultCache(0, 64), std::invalid_argument);
  EXPECT_THROW(ResultCache(8, -1), std::invalid_argument);
}

}  // namespace
}  // namespace dirq::serve
