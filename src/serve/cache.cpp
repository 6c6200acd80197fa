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
  const auto it = lists_.find(type);
  if (it == lists_.end()) {
    ++stats_.misses;
    return {};
  }
  TypeList& list = it->second;
  // The first Fresh containing entry in FIFO order wins, else the first
  // Stale one. Linear scan is deliberate: the cache is small (O(1k)
  // entries), the order is deterministic, and containment match does not
  // index well. The scan covers only the entries that can answer when the
  // list is in order (see the header): a binary search finds where that
  // suffix starts, and the prefix before it is read only on a miss, to
  // tell an expired match from none.
  const auto expired = [&](const Key& k) {
    return k.updates_at_create != updates_now &&
           epoch - k.created_epoch > stale_epochs_;
  };
  const std::size_t end = list.keys.size();
  std::size_t begin = list.head;
  if (list.ordered && begin < end && expired(list.keys[begin]) &&
      epoch >= list.keys.back().created_epoch &&
      updates_now >= list.keys.back().updates_at_create) {
    const auto first = list.keys.begin() + static_cast<std::ptrdiff_t>(begin);
    begin += static_cast<std::size_t>(
        std::partition_point(first, list.keys.end(), expired) - first);
  }
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t fresh = kNone;
  std::size_t stale = kNone;
  bool saw_expired = false;
  for (std::size_t i = begin; i < end; ++i) {
    const Key& k = list.keys[i];
    // Non-short-circuit: one well-predicted branch per entry instead of
    // two data-dependent ones (few entries contain the window).
    const bool contains = (k.lo <= lo) & (k.hi >= hi);
    if (!contains) continue;
    if (k.updates_at_create == updates_now) {
      fresh = i;
      break;  // exact — nothing can beat it
    }
    if (epoch - k.created_epoch <= stale_epochs_) {
      if (stale == kNone) stale = i;
    } else {
      saw_expired = true;
    }
  }
  if (fresh == kNone && stale == kNone) {
    // Every skipped entry has expired: did one contain the window?
    for (std::size_t i = list.head; i < begin && !saw_expired; ++i) {
      saw_expired = (list.keys[i].lo <= lo) & (list.keys[i].hi >= hi);
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
  out.tree = list.bodies[chosen].tree;
  out.sources_ = list.bodies[chosen].sources;
  out.lo_ = lo;
  out.hi_ = hi;
  if (fresh != kNone) {
    ++stats_.fresh_hits;
  } else {
    ++stats_.stale_hits;
  }
  if (list.keys[chosen].lo < lo || list.keys[chosen].hi > hi) {
    ++stats_.containment_hits;  // served from a strict superset
  }
  return out;
}

void ResultCache::evict_oldest() {
  TypeList& list = lists_.find(order_[order_head_])->second;
  list.bodies[list.head] = Body{};  // release the sources now
  ++list.head;
  if (2 * list.head >= list.keys.size()) {
    const auto popped = static_cast<std::ptrdiff_t>(list.head);
    list.keys.erase(list.keys.begin(), list.keys.begin() + popped);
    list.bodies.erase(list.bodies.begin(), list.bodies.begin() + popped);
    list.head = 0;
  }
  ++stats_.evictions;
}

void ResultCache::insert(SensorType type, double lo, double hi, TreeId tree,
                         std::int64_t epoch, std::int64_t updates_at_answer,
                         std::vector<CachedSource> sources) {
  std::sort(sources.begin(), sources.end(),
            [](const CachedSource& a, const CachedSource& b) {
              return a.node < b.node;
            });
  ++stats_.insertions;
  if (order_.size() < max_entries_) {
    order_.push_back(type);
  } else {
    // Full: drop the globally oldest entry (the front of its type's list);
    // the new one takes its slot in the ring.
    evict_oldest();
    order_[order_head_] = type;
    order_head_ = order_head_ + 1 == max_entries_ ? 0 : order_head_ + 1;
  }
  TypeList& list = lists_[type];
  if (!list.keys.empty() && (epoch < list.keys.back().created_epoch ||
                             updates_at_answer <
                                 list.keys.back().updates_at_create)) {
    list.ordered = false;
  }
  list.keys.push_back({lo, hi, epoch, updates_at_answer});
  list.bodies.push_back({tree, std::move(sources)});
}

void ResultCache::invalidate_all() {
  lists_.clear();
  order_.clear();
  order_head_ = 0;
}

}  // namespace dirq::serve
