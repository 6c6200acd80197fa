// Order independence of the counter-keyed loss channel — the property the
// parallel epoch engine leans on when it evaluates drop verdicts inside
// shards. A verdict depends only on the delivery's identity
// (tree, from, to, per-key sequence number), so any interleaving of
// deliveries that preserves each key's own subsequence order must produce
// the identical per-frame verdict set. The one-chunk walk and the subtree-
// and tree-sharded engines are all such interleavings of one another.
#include "core/lossy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/counter_rng.hpp"
#include "sim/rng.hpp"

namespace dirq::core {
namespace {

struct Frame {
  TreeId tree;
  NodeId from;
  NodeId to;
  std::uint64_t seq;  // position within this frame's (tree, from, to) key
};

/// A synthetic delivery schedule: several trees, senders talking to a few
/// neighbours each, uneven per-key depths so keys finish at different
/// times under any interleaving.
std::vector<Frame> make_frames() {
  std::vector<Frame> frames;
  for (TreeId tree = 0; tree < 3; ++tree) {
    for (NodeId from = 0; from < 6; ++from) {
      for (NodeId to = 0; to < 6; ++to) {
        if (to == from) continue;
        const std::uint64_t depth = 1 + ((from * 7 + to * 3 + tree) % 5);
        for (std::uint64_t seq = 0; seq < depth; ++seq) {
          frames.push_back({tree, from, to, seq});
        }
      }
    }
  }
  return frames;
}

/// Feeds `order` (indices into `frames`) through a fresh channel, the
/// way DirqNetwork::deliver does (next_drop), and returns the verdict of
/// every frame, indexed by frame id. A frame's verdict is observed as the
/// dropped-total delta across its delivery, which must agree with the
/// verdict next_drop returned.
std::vector<bool> verdicts_in_order(const std::vector<Frame>& frames,
                                    const std::vector<std::size_t>& order) {
  LossChannel channel(0.3, sim::CounterRng(1234).substream("loss"));
  std::vector<bool> verdict(frames.size(), false);
  for (std::size_t id : order) {
    const Frame& f = frames[id];
    const std::int64_t before = channel.dropped();
    const bool dropped = channel.next_drop(f.tree, f.from, f.to);
    verdict[id] = channel.dropped() != before;
    EXPECT_EQ(verdict[id], dropped) << "frame " << id;
  }
  EXPECT_EQ(channel.offered(), static_cast<std::int64_t>(order.size()));
  return verdict;
}

/// Permutes whole-schedule order while keeping every key's internal
/// subsequence order (stable sort on a per-frame shuffle rank that is
/// constant within a key prefix-respecting comparison).
std::vector<std::size_t> shuffled_key_preserving(
    const std::vector<Frame>& frames, std::uint64_t seed) {
  // Assign each KEY a random rank, then emit keys in rank order but each
  // key's frames in seq order — an extreme reordering (key-major) that
  // still preserves per-key subsequences. Interleavings between these
  // extremes are covered by the round-robin case below.
  std::vector<std::size_t> order(frames.size());
  std::iota(order.begin(), order.end(), 0);
  sim::Rng rng(seed);
  std::vector<std::uint64_t> key_rank(frames.size());
  const auto key_of = [&](std::size_t id) {
    const Frame& f = frames[id];
    return (static_cast<std::uint64_t>(f.tree) << 32) ^
           (static_cast<std::uint64_t>(f.from) << 16) ^
           static_cast<std::uint64_t>(f.to);
  };
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranks;  // key -> rank
  for (std::size_t id = 0; id < frames.size(); ++id) {
    const std::uint64_t k = key_of(id);
    auto it = std::find_if(ranks.begin(), ranks.end(),
                           [&](const auto& p) { return p.first == k; });
    if (it == ranks.end()) {
      ranks.emplace_back(k, rng.next_u64());
      it = ranks.end() - 1;
    }
    key_rank[id] = it->second;
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return key_rank[a] < key_rank[b];
  });
  return order;
}

/// Round-robin over keys: deliver one frame from each live key in turn —
/// the opposite extreme from key-major batching.
std::vector<std::size_t> round_robin_order(const std::vector<Frame>& frames) {
  std::vector<std::size_t> order;
  order.reserve(frames.size());
  std::vector<bool> emitted(frames.size(), false);
  std::size_t remaining = frames.size();
  while (remaining > 0) {
    std::vector<std::uint64_t> seen_keys;
    for (std::size_t id = 0; id < frames.size(); ++id) {
      if (emitted[id]) continue;
      const Frame& f = frames[id];
      const std::uint64_t k = (static_cast<std::uint64_t>(f.tree) << 32) ^
                              (static_cast<std::uint64_t>(f.from) << 16) ^
                              static_cast<std::uint64_t>(f.to);
      if (std::find(seen_keys.begin(), seen_keys.end(), k) != seen_keys.end()) {
        continue;  // this key already contributed one frame this round
      }
      seen_keys.push_back(k);
      order.push_back(id);
      emitted[id] = true;
      --remaining;
    }
  }
  return order;
}

TEST(LossyOrder, VerdictsIdenticalAcrossKeyPreservingInterleavings) {
  const std::vector<Frame> frames = make_frames();
  std::vector<std::size_t> canonical(frames.size());
  std::iota(canonical.begin(), canonical.end(), 0);
  const std::vector<bool> base = verdicts_in_order(frames, canonical);
  // Sanity: the channel actually drops and passes something.
  EXPECT_GT(std::count(base.begin(), base.end(), true), 0);
  EXPECT_GT(std::count(base.begin(), base.end(), false), 0);

  std::vector<std::size_t> reversed = canonical;  // key order reversed,
  std::stable_sort(reversed.begin(), reversed.end(),  // seq order kept
                   [&](std::size_t a, std::size_t b) {
                     const Frame &fa = frames[a], &fb = frames[b];
                     return std::tuple(fb.tree, fb.from, fb.to) <
                            std::tuple(fa.tree, fa.from, fa.to);
                   });
  EXPECT_EQ(verdicts_in_order(frames, reversed), base);
  EXPECT_EQ(verdicts_in_order(frames, round_robin_order(frames)), base);
  for (std::uint64_t seed : {7u, 99u, 1337u}) {
    EXPECT_EQ(verdicts_in_order(frames, shuffled_key_preserving(frames, seed)),
              base)
        << "seed " << seed;
  }
}

TEST(LossyOrder, StatefulNextDropMatchesPureDrops) {
  // next_drop must be exactly drops(key, 0), drops(key, 1), ... — the
  // stateful wrapper adds sequencing, never entropy.
  LossChannel channel(0.4, sim::CounterRng(77).substream("loss"));
  for (TreeId tree = 0; tree < 2; ++tree) {
    for (NodeId from = 0; from < 4; ++from) {
      for (std::uint64_t seq = 0; seq < 16; ++seq) {
        EXPECT_EQ(channel.next_drop(tree, from, from + 10),
                  channel.drops(tree, from, from + 10, seq));
      }
    }
  }
}

TEST(LossyOrder, DistinctKeysGetDistinctStreams) {
  // Neighbouring keys must not alias: over 64 verdicts, at least one
  // position differs between (tree, from, to) and its single-field
  // perturbations. Guards the +1 offsets in the hash chain.
  const LossChannel channel(0.5, sim::CounterRng(3).substream("loss"));
  const auto fingerprint = [&](TreeId tree, NodeId from, NodeId to) {
    std::uint64_t bits = 0;
    for (std::uint64_t seq = 0; seq < 64; ++seq) {
      bits = (bits << 1) | (channel.drops(tree, from, to, seq) ? 1u : 0u);
    }
    return bits;
  };
  const std::uint64_t base = fingerprint(1, 2, 3);
  EXPECT_NE(base, fingerprint(2, 2, 3));
  EXPECT_NE(base, fingerprint(1, 3, 3));
  EXPECT_NE(base, fingerprint(1, 2, 4));
  EXPECT_NE(base, fingerprint(3, 1, 2));  // field swap must not collide
}

}  // namespace
}  // namespace dirq::core
