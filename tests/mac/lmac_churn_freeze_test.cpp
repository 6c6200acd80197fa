// LMAC neighbour tables under churn, frozen frame by frame.
//
// A 120-node scaled_placement network (64-slot frames, degrees up to 14)
// runs 48 frames through every table mutation LMAC has: nodes that sit
// mid-table in their neighbours' tables die, so the timeout erases shift
// later entries; a dead id is revived through add_node with its old id,
// which relinks its neighbours' sorted adjacency; fresh nodes join, which
// appends entries; and a second death wave hits the rejoined tables.
//
// The log records every lost/found callback as (frame, self, neighbour)
// and, after each frame, every node's known_neighbors and control_rx. The
// per-frame FNV-1a digests below were captured from a MAC whose every
// section walked every receiver; the bookkeeping that lets a section skip
// them (clean sections, closed-form counts, timeout buckets) must not move
// a single byte. Do NOT regenerate them with current code. A mismatch
// names the first differing frame and prints its log.
//
// Exact bytes are libstdc++-specific (the placement draws through
// std::uniform_real_distribution); the structural checks run everywhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "mac/lmac.hpp"
#include "net/placement.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace dirq::mac {
namespace {

constexpr std::size_t kNodes = 120;
constexpr std::int64_t kFrames = 48;

using Event = std::tuple<std::int64_t, NodeId, NodeId>;  // (frame, self, nbr)

struct CallbackLog final : LinkObserver {
  const LmacNetwork* mac = nullptr;
  std::ostringstream* text = nullptr;
  std::vector<Event> lost, found;
  void on_neighbor_lost(NodeId self, NodeId nb) override {
    lost.emplace_back(mac->current_frame(), self, nb);
    *text << "lost " << mac->current_frame() << ' ' << self << ' ' << nb << '\n';
  }
  void on_neighbor_found(NodeId self, NodeId nb) override {
    found.emplace_back(mac->current_frame(), self, nb);
    *text << "found " << mac->current_frame() << ' ' << self << ' ' << nb << '\n';
  }
};

struct ChurnRun {
  std::vector<std::string> frames;  // one log block per frame
  CallbackLog callbacks;
  // (frame after which the node died, node, its alive neighbours then)
  std::vector<std::tuple<std::int64_t, NodeId, std::vector<NodeId>>> deaths;
  std::vector<NodeId> joined;  // revived or fresh, in join order
  std::vector<std::vector<NodeId>> final_tables;
  net::Topology topo;
};

/// True if `u` is neither the first nor the last entry of any alive
/// neighbour's sorted adjacency, i.e. of its bootstrap table: erasing u
/// shifts a later entry in every table that holds it.
bool mid_table(const net::Topology& topo, NodeId u) {
  if (!topo.is_alive(u) || topo.neighbors(u).size() < 3) return false;
  for (NodeId v : topo.neighbors(u)) {
    const auto adj = topo.neighbors(v);
    if (adj.front() == u || adj.back() == u) return false;
  }
  return true;
}

/// The first `count` mid-table nodes at or after `from`, skipping `avoid`.
std::vector<NodeId> pick_victims(const net::Topology& topo, NodeId from,
                                 std::size_t count,
                                 const std::set<NodeId>& avoid) {
  std::vector<NodeId> out;
  for (NodeId u = from; u < topo.size() && out.size() < count; ++u) {
    if (!avoid.contains(u) && mid_table(topo, u)) out.push_back(u);
  }
  return out;
}

ChurnRun run_churn() {
  ChurnRun run;
  sim::Rng rng(3);
  run.topo = net::random_connected(net::scaled_placement(kNodes), rng);
  net::Topology& topo = run.topo;

  sim::Scheduler sched;
  LmacConfig cfg;
  cfg.slots_per_frame = 64;
  cfg.ticks_per_slot = 16;
  LmacNetwork mac(sched, topo, cfg);
  std::ostringstream text;
  run.callbacks.mac = &mac;
  run.callbacks.text = &text;
  mac.set_observer(&run.callbacks);
  mac.start();

  std::set<NodeId> touched;
  const auto kill = [&](std::int64_t frame, NodeId u) {
    const auto nbrs = topo.neighbors(u);
    run.deaths.emplace_back(frame, u,
                            std::vector<NodeId>(nbrs.begin(), nbrs.end()));
    touched.insert(u);
    text << "kill " << u << '\n';
    topo.kill_node(u);
  };
  const auto join = [&](const net::Node& n) {
    const NodeId id = topo.add_node(n);
    run.joined.push_back(id);
    touched.insert(id);
    text << "join " << id << '\n';
    return id;
  };

  NodeId revived = kNoNode;
  NodeId fresh = kNoNode;
  for (std::int64_t f = 0; f < kFrames; ++f) {
    sched.run_until((f + 1) * cfg.frame_ticks() - 1);
    for (NodeId u = 0; u < topo.size(); ++u) {
      text << "n " << u << " rx=" << mac.control_rx(u) << " nb=";
      for (NodeId v : mac.known_neighbors(u)) text << v << ',';
      text << '\n';
    }
    run.frames.push_back(text.str());
    text.str("");

    // Churn between frame f and frame f + 1.
    if (f == 5) {
      for (NodeId u : pick_victims(topo, kNodes / 4, 3, touched)) kill(f, u);
    } else if (f == 15) {
      for (NodeId u : pick_victims(topo, kNodes / 2, 2, touched)) kill(f, u);
    } else if (f == 21) {
      // Revival with the old id at the old position.
      revived = join(topo.node(std::get<1>(run.deaths.front())));
    } else if (f == 27) {
      // Two fresh ids, each between an untouched node and its highest
      // neighbour.
      for (NodeId anchor : {NodeId{kNodes / 3}, NodeId{2 * kNodes / 3}}) {
        while (touched.contains(anchor) || topo.neighbors(anchor).empty()) {
          ++anchor;
        }
        const NodeId far = topo.neighbors(anchor).back();
        net::Node n;
        n.x = (topo.node(anchor).x + topo.node(far).x) / 2.0;
        n.y = (topo.node(anchor).y + topo.node(far).y) / 2.0;
        const NodeId id = join(n);
        if (fresh == kNoNode) fresh = id;
      }
    } else if (f == 33) {
      // Second wave through the rejoined tables: the revived node dies
      // again, and so does the fresh node's lowest-id neighbour.
      kill(f, revived);
      for (NodeId v : topo.neighbors(fresh)) {
        if (!touched.contains(v)) {
          kill(f, v);
          break;
        }
      }
    }
  }
  for (NodeId u = 0; u < topo.size(); ++u) {
    run.final_tables.push_back(mac.known_neighbors(u));
  }
  return run;
}

TEST(LmacChurnFreeze, ScenarioExercisesEveryTableMutation) {
  const ChurnRun run = run_churn();
  EXPECT_GE(run.topo.max_degree(), 10u);
  ASSERT_EQ(run.deaths.size(), 7u);  // 3 + 2 + revived + fresh's neighbour
  ASSERT_EQ(run.joined.size(), 3u);  // one revival, two fresh ids
  EXPECT_LT(run.joined[0], kNodes);
  EXPECT_EQ(run.joined[1], kNodes);
  EXPECT_EQ(run.joined[2], kNodes + 1);
}

TEST(LmacChurnFreeze, LossesFireExactlyAtTimeoutAndNowhereElse) {
  const ChurnRun run = run_churn();
  const std::int64_t timeout = LmacConfig{}.timeout_frames;
  std::vector<Event> expected;
  for (const auto& [frame, dead, nbrs] : run.deaths) {
    for (NodeId w : nbrs) {
      // A neighbour that died before the timeout reports nothing.
      bool survives = true;
      for (const auto& [f2, d2, n2] : run.deaths) {
        if (d2 == w && f2 <= frame + timeout) survives = false;
      }
      if (survives) expected.emplace_back(frame + timeout, w, dead);
    }
  }
  std::vector<Event> lost = run.callbacks.lost;
  std::sort(expected.begin(), expected.end());
  std::sort(lost.begin(), lost.end());
  EXPECT_EQ(lost, expected);
}

TEST(LmacChurnFreeze, JoinersAreFoundAndTablesMatchTopology) {
  const ChurnRun run = run_churn();
  for (NodeId id : run.joined) {
    bool found = false;
    for (const auto& [frame, self, nb] : run.callbacks.found) {
      if (nb == id) found = true;
    }
    EXPECT_TRUE(found) << "node " << id << " was never discovered";
  }
  for (NodeId u = 0; u < run.topo.size(); ++u) {
    if (!run.topo.is_alive(u)) continue;
    const auto adj = run.topo.neighbors(u);
    EXPECT_EQ(run.final_tables[u], std::vector<NodeId>(adj.begin(), adj.end()))
        << "node " << u;
  }
}

#if defined(__GLIBCXX__)

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t kFrozenFrames[kFrames] = {
    0x9ae582c38a4fbe64ULL, 0x23993dbd4b1cd8c3ULL,
    0xe560bf7381deebbdULL, 0xbab9bd7ce6b381f2ULL,
    0x65b9c9c3a82469cfULL, 0x302af279cc9a4383ULL,
    0xb66d18de0b251681ULL, 0x8b4f92068f0f681bULL,
    0x8af4ecd658ee3dd2ULL, 0xeac7157670a27996ULL,
    0xbd43e64b91695f92ULL, 0xdd49a13f9c58661aULL,
    0x2dab98a12428c40fULL, 0xf544b2c23d35f9e3ULL,
    0xb00f9a71f9bef03aULL, 0xf480beaf0e07516eULL,
    0x316aa6ad15177f33ULL, 0x8e32e11fcae9cbddULL,
    0xd98fcbb873ededc5ULL, 0x7502e569f06d2b36ULL,
    0x65d60c6e2c5cd564ULL, 0x74ace2650b28fe30ULL,
    0x0c72c867e897238dULL, 0xcfc4b3ccf91ff28dULL,
    0x7ac62c9536633816ULL, 0xe3b06c3440b821cbULL,
    0xc4674dac51a10a19ULL, 0x95c9a3652cc2615fULL,
    0x97ee1ca81c94644dULL, 0xfcf6da05d03c4ae9ULL,
    0x3c727339734f3c7dULL, 0x747e166da9ee562eULL,
    0xdd3cfe297775ed88ULL, 0x2cd353f66704abfeULL,
    0x74ef63ae669aafc2ULL, 0x5686f91f73f310eaULL,
    0x9191b7a391d171a4ULL, 0x4d77cd5c9533ab71ULL,
    0xf5b953e5d581f103ULL, 0x26aae90f41d88e51ULL,
    0x0c68a766ba976bc8ULL, 0x0e0f04d6531afed1ULL,
    0xe6aaaaae11809f9dULL, 0xffc477e6afd78bb7ULL,
    0x1c11490a79262435ULL, 0x4e58943dde43db29ULL,
    0xfedb556fd4b83c58ULL, 0x40297b0eeec326d4ULL,
};

TEST(LmacChurnFreeze, FrameLogMatchesFrozenDigests) {
  const ChurnRun run = run_churn();
  ASSERT_EQ(run.frames.size(), static_cast<std::size_t>(kFrames));
  for (std::int64_t f = 0; f < kFrames; ++f) {
    const std::string& log = run.frames[static_cast<std::size_t>(f)];
    if (fnv1a(log) != kFrozenFrames[f]) {
      FAIL() << "first differing frame: " << f << "\n" << log;
    }
  }
}

#else

TEST(LmacChurnFreeze, FrozenDigestsSkippedOnNonLibstdcxx) {
  GTEST_SKIP() << "frozen frame digests are libstdc++-specific";
}

#endif  // defined(__GLIBCXX__)

}  // namespace
}  // namespace dirq::mac
