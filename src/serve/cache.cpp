#include "serve/cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dirq::serve {

std::vector<NodeId> CacheLookup::answer() const {
  // Containment filter: a stored source answers the narrower window iff
  // its own tuple overlaps it (see the header for why this is exact when
  // the entry is Fresh).
  std::vector<NodeId> out;
  for (const CachedSource& s : sources_) {
    if (s.tuple_min <= hi_ && s.tuple_max >= lo_) out.push_back(s.node);
  }
  return out;
}

ResultCache::ResultCache(std::size_t max_entries, std::int64_t stale_epochs)
    : max_entries_(max_entries), stale_epochs_(stale_epochs) {
  if (max_entries_ == 0) {
    throw std::invalid_argument("ResultCache: max_entries must be > 0");
  }
  if (stale_epochs_ < 0) {
    throw std::invalid_argument("ResultCache: stale_epochs must be >= 0");
  }
}

CacheLookup ResultCache::lookup(SensorType type, double lo, double hi,
                                std::int64_t epoch,
                                std::int64_t updates_now) {
  // Scan in FIFO order; the first Fresh containing entry wins, else the
  // first Stale one. Linear scan is deliberate: the cache is small
  // (O(1k) entries), the order is deterministic, and containment match
  // does not index well.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t fresh = kNone;
  std::size_t stale = kNone;
  bool saw_expired = false;
  const std::size_t n = keys_.size();
  for (std::size_t i = 0, slot = head_; i < n; ++i, ++slot) {
    if (slot == n) slot = 0;
    const Key& k = keys_[slot];
    // Non-short-circuit: one well-predicted branch per entry instead of
    // three data-dependent ones (few entries contain the window).
    const bool contains = (k.type == type) & (k.lo <= lo) & (k.hi >= hi);
    if (!contains) continue;
    if (k.updates_at_create == updates_now) {
      fresh = slot;
      break;  // exact — nothing can beat it
    }
    if (epoch - k.created_epoch <= stale_epochs_) {
      if (stale == kNone) stale = slot;
    } else {
      saw_expired = true;
    }
  }
  const std::size_t chosen = fresh != kNone ? fresh : stale;
  if (chosen == kNone) {
    ++stats_.misses;
    if (saw_expired) ++stats_.expired;
    return {};
  }
  CacheLookup out;
  out.kind = fresh != kNone ? CacheLookup::Kind::Fresh
                            : CacheLookup::Kind::Stale;
  out.tree = bodies_[chosen].tree;
  out.sources_ = bodies_[chosen].sources;
  out.lo_ = lo;
  out.hi_ = hi;
  if (fresh != kNone) {
    ++stats_.fresh_hits;
  } else {
    ++stats_.stale_hits;
  }
  if (keys_[chosen].lo < lo || keys_[chosen].hi > hi) {
    ++stats_.containment_hits;  // served from a strict superset
  }
  return out;
}

void ResultCache::insert(SensorType type, double lo, double hi, TreeId tree,
                         std::int64_t epoch, std::int64_t updates_at_answer,
                         std::vector<CachedSource> sources) {
  std::sort(sources.begin(), sources.end(),
            [](const CachedSource& a, const CachedSource& b) {
              return a.node < b.node;
            });
  const Key key{lo, hi, epoch, updates_at_answer, type};
  Body body{tree, std::move(sources)};
  ++stats_.insertions;
  if (keys_.size() < max_entries_) {
    keys_.push_back(key);
    bodies_.push_back(std::move(body));
    return;
  }
  // Full: the new entry takes the oldest one's slot (FIFO eviction).
  keys_[head_] = key;
  bodies_[head_] = std::move(body);
  head_ = head_ + 1 == max_entries_ ? 0 : head_ + 1;
  ++stats_.evictions;
}

void ResultCache::invalidate_all() {
  keys_.clear();
  bodies_.clear();
  head_ = 0;
}

}  // namespace dirq::serve
