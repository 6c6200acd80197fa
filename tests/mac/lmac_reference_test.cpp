// LmacNetwork against the reference LMAC (tests/support/reference_lmac.hpp),
// driven in lockstep on one Topology by seeded churn scripts.
//
// Each script places 20-200 nodes, picks 12-64 slots, 1-32 ticks per slot
// and a timeout of 1-6 frames, then mixes scheduler runs (to frame
// boundaries and to mid-frame ticks) with kills (some before the victim's
// first section), revivals of dead ids inside and beyond the timeout
// window, fresh joins, unicasts and broadcasts. After every run it
// compares the ordered callback logs (kind, frame, node, neighbour, the
// node's control_rx at the callback and, for a found callback, every
// node's control_rx summed), every node's known_neighbors, slot and
// control and data counters, and both schedulers' dispatch counts.
//
// The two implementations see the same placement, so the comparison holds
// on any standard library.
#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "mac/lmac.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "support/reference_lmac.hpp"

namespace dirq::mac {
namespace {

enum class Kind { Found, Lost, Message };

struct Event {
  Kind kind = Kind::Found;
  std::int64_t frame = 0;
  NodeId self = kNoNode;
  NodeId other = kNoNode;  // neighbour, or the message's source
  CostUnits rx_self = 0;
  CostUnits rx_total = 0;  // found callbacks only
  std::int64_t payload = -1;
  bool operator==(const Event&) const = default;
};

std::string describe(const Event& e) {
  static constexpr const char* kNames[] = {"found", "lost", "message"};
  std::ostringstream out;
  out << kNames[static_cast<int>(e.kind)] << " frame=" << e.frame
      << " self=" << e.self << " other=" << e.other << " rx=" << e.rx_self
      << " rx_total=" << e.rx_total << " payload=" << e.payload;
  return out.str();
}

template <typename Mac>
struct CallbackLog final : LinkObserver {
  const Mac* mac = nullptr;
  const net::Topology* topo = nullptr;
  std::vector<Event> events;

  void record(Kind kind, NodeId self, NodeId other, std::int64_t payload) {
    Event e{kind, mac->current_frame(), self, other, mac->control_rx(self), 0,
            payload};
    // A found callback fires inside a control section: every node's count
    // must already be exact there, not only the finder's.
    if (kind == Kind::Found) {
      for (NodeId u = 0; u < topo->size(); ++u) e.rx_total += mac->control_rx(u);
    }
    events.push_back(e);
  }
  void on_message(NodeId self, const Frame& f) override {
    record(Kind::Message, self, f.src, std::any_cast<std::int64_t>(f.payload));
  }
  void on_neighbor_lost(NodeId self, NodeId nb) override {
    record(Kind::Lost, self, nb, -1);
  }
  void on_neighbor_found(NodeId self, NodeId nb) override {
    record(Kind::Found, self, nb, -1);
  }
};

struct Lockstep {
  net::Topology topo;
  LmacConfig cfg;
  sim::Scheduler sched, ref_sched;
  LmacNetwork mac;
  ReferenceLmac ref;
  CallbackLog<LmacNetwork> log;
  CallbackLog<ReferenceLmac> ref_log;

  Lockstep(net::Topology t, LmacConfig c)
      : topo(std::move(t)), cfg(c), mac(sched, topo, cfg), ref(ref_sched, topo, cfg) {
    log.mac = &mac;
    log.topo = &topo;
    ref_log.mac = &ref;
    ref_log.topo = &topo;
    mac.set_observer(&log);
    ref.set_observer(&ref_log);
    mac.start();
    ref.start();
  }

  void run_until(SimTime t) {
    sched.run_until(t);
    ref_sched.run_until(t);
  }
  void send(NodeId from, NodeId to, std::int64_t payload) {
    mac.send(from, to, payload);
    ref.send(from, to, payload);
  }
  void broadcast(NodeId from, std::int64_t payload) {
    mac.broadcast(from, payload);
    ref.broadcast(from, payload);
  }

  /// Compares everything observable; names the first difference.
  [[nodiscard]] ::testing::AssertionResult same() const {
    const auto& a = log.events;
    const auto& b = ref_log.events;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      if (!(a[i] == b[i])) {
        return ::testing::AssertionFailure()
               << "callback " << i << ": " << describe(a[i])
               << "\n  reference:  " << describe(b[i]);
      }
    }
    if (a.size() != b.size()) {
      return ::testing::AssertionFailure()
             << a.size() << " callbacks, reference " << b.size();
    }
    if (sched.dispatched() != ref_sched.dispatched()) {
      return ::testing::AssertionFailure()
             << "dispatched " << sched.dispatched() << ", reference "
             << ref_sched.dispatched();
    }
    if (mac.current_frame() != ref.current_frame()) {
      return ::testing::AssertionFailure() << "frame " << mac.current_frame();
    }
    for (NodeId u = 0; u < topo.size(); ++u) {
      const auto fail = [&](const char* what, auto got, auto want) {
        return ::testing::AssertionFailure()
               << "node " << u << ' ' << what << ' ' << got << ", reference "
               << want;
      };
      if (mac.slot_of(u) != ref.slot_of(u)) {
        return fail("slot", mac.slot_of(u), ref.slot_of(u));
      }
      if (mac.control_tx(u) != ref.control_tx(u)) {
        return fail("control_tx", mac.control_tx(u), ref.control_tx(u));
      }
      if (mac.control_rx(u) != ref.control_rx(u)) {
        return fail("control_rx", mac.control_rx(u), ref.control_rx(u));
      }
      if (mac.data_tx(u) != ref.data_tx(u)) {
        return fail("data_tx", mac.data_tx(u), ref.data_tx(u));
      }
      if (mac.data_rx(u) != ref.data_rx(u)) {
        return fail("data_rx", mac.data_rx(u), ref.data_rx(u));
      }
      if (mac.known_neighbors(u) != ref.known_neighbors(u)) {
        return fail("known_neighbors size", mac.known_neighbors(u).size(),
                    ref.known_neighbors(u).size());
      }
    }
    return ::testing::AssertionSuccess();
  }
};

/// `n` nodes uniform in a square sized for the given mean degree at radio
/// range 1.
net::Topology place(sim::Rng& rng, std::size_t n, double mean_degree) {
  const double side =
      std::sqrt(static_cast<double>(n) * std::numbers::pi / mean_degree);
  std::vector<net::Node> nodes(n);
  for (net::Node& node : nodes) {
    node.x = rng.uniform(0.0, side);
    node.y = rng.uniform(0.0, side);
  }
  return net::Topology(std::move(nodes), 1.0);
}

bool electable(const net::Topology& topo, std::size_t slots) {
  try {
    (void)elect_slots(topo, 0, slots);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

struct Totals {
  std::size_t found = 0, lost = 0, messages = 0, comparisons = 0;
};

/// One seeded script; returns false (after reporting) at the first
/// difference.
bool run_script(std::uint64_t seed, Totals& totals) {
  sim::Rng rng(seed);
  const auto n = static_cast<std::size_t>(rng.uniform_int(20, 200));
  double degree = rng.uniform(3.0, 9.0);
  net::Topology topo = place(rng, n, degree);
  LmacConfig cfg;
  cfg.slots_per_frame = static_cast<std::size_t>(rng.uniform_int(12, 64));
  cfg.ticks_per_slot = rng.uniform_int(1, 32);
  cfg.timeout_frames = static_cast<int>(rng.uniform_int(1, 6));
  while (!electable(topo, cfg.slots_per_frame)) {
    if (cfg.slots_per_frame < 64) {
      ++cfg.slots_per_frame;
    } else {
      degree *= 0.8;
      topo = place(rng, n, degree);
    }
  }
  Lockstep run(std::move(topo), cfg);
  net::Topology& t = run.topo;
  const SimTime frame = cfg.frame_ticks();
  std::ostringstream script;
  script << "seed " << seed << ": " << n << " nodes, " << cfg.slots_per_frame
         << " slots x " << cfg.ticks_per_slot << " ticks, timeout "
         << cfg.timeout_frames << '\n';

  const auto random_node = [&](bool alive) {
    std::vector<NodeId> pool;
    for (NodeId u = 0; u < t.size(); ++u) {
      if (t.is_alive(u) == alive) pool.push_back(u);
    }
    if (pool.empty()) return kNoNode;
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };
  const auto near = [&](NodeId anchor) {
    net::Node node;
    const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double r = rng.uniform(0.05, 0.95);
    node.x = t.node(anchor).x + r * std::cos(angle);
    node.y = t.node(anchor).y + r * std::sin(angle);
    return node;
  };
  const auto kill = [&](NodeId u) {
    if (u == kNoNode) return;
    script << "kill " << u << '\n';
    t.kill_node(u);
  };
  std::int64_t payload = 0;
  const auto check = [&]() {
    ++totals.comparisons;
    const ::testing::AssertionResult same = run.same();
    if (!same) ADD_FAILURE() << script.str() << same.message();
    return static_cast<bool>(same);
  };

  // Some victims die before their first section.
  if (rng.bernoulli(0.3)) {
    for (int k = 0; k < 3; ++k) kill(random_node(true));
  }
  const int steps = static_cast<int>(rng.uniform_int(40, 90));
  for (int step = 0; step < steps; ++step) {
    const std::int64_t action = rng.uniform_int(0, 99);
    if (action < 35) {
      const SimTime now = run.sched.now();
      SimTime until = now;
      switch (rng.uniform_int(0, 2)) {
        case 0:  // the last tick of a frame
          until = (now / frame + rng.uniform_int(1, 3)) * frame - 1;
          break;
        case 1:  // a frame's first slot
          until = (now / frame + rng.uniform_int(1, 2)) * frame;
          break;
        default:  // mid-frame
          until = now + rng.uniform_int(1, 2 * frame);
          break;
      }
      until = std::max(until, now + 1);
      script << "run_until " << until << '\n';
      run.run_until(until);
      if (!check()) return false;
    } else if (action < 50) {
      kill(random_node(true));
    } else if (action < 62) {
      const NodeId dead = random_node(false);
      if (dead == kNoNode) continue;
      net::Node node = t.node(dead);  // carries the old id
      if (rng.bernoulli(0.3)) {
        const NodeId anchor = random_node(true);
        if (anchor != kNoNode) {
          const net::Node moved = near(anchor);
          node.x = moved.x;
          node.y = moved.y;
        }
      }
      script << "revive " << dead << '\n';
      t.add_node(node);
    } else if (action < 70) {
      const NodeId anchor = random_node(true);
      if (anchor == kNoNode) continue;
      const NodeId id = t.add_node(near(anchor));
      script << "join " << id << " near " << anchor << '\n';
    } else {
      const NodeId from = random_node(true);
      if (from == kNoNode) continue;
      const auto nbrs = t.neighbors(from);
      if (rng.bernoulli(0.3)) {
        script << "broadcast " << from << '\n';
        run.broadcast(from, payload++);
      } else if (!nbrs.empty() && rng.bernoulli(0.8)) {
        const NodeId to = nbrs[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(nbrs.size()) - 1))];
        script << "send " << from << " -> " << to << '\n';
        run.send(from, to, payload++);
      } else {
        const auto to = static_cast<NodeId>(
            rng.uniform_int(0, static_cast<std::int64_t>(t.size()) - 1));
        script << "send " << from << " -> " << to << " (any)\n";
        run.send(from, to, payload++);
      }
    }
  }
  // Let every pending timeout and election play out.
  run.run_until(run.sched.now() + (2 * cfg.timeout_frames + 3) * frame);
  if (!check()) return false;
  for (const Event& e : run.log.events) {
    if (e.kind == Kind::Found) ++totals.found;
    if (e.kind == Kind::Lost) ++totals.lost;
    if (e.kind == Kind::Message) ++totals.messages;
  }
  return true;
}

TEST(LmacReference, SeededChurnScriptsMatch) {
  Totals totals;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    if (!run_script(seed, totals)) return;
  }
  // The scripts must reach every kind of callback, or they prove nothing.
  EXPECT_GT(totals.found, 10000u);
  EXPECT_GT(totals.lost, 5000u);
  EXPECT_GT(totals.messages, 5000u);
  EXPECT_GT(totals.comparisons, 5000u);
}

// A joiner that finds no free slot keeps listening and is never scanned,
// so it can outlive a dead sender's timeout. Once it elects, it loses that
// sender the next frame.
TEST(LmacReference, StuckJoinerLosesDeadSenderAfterElecting) {
  std::vector<net::Node> nodes(19);
  for (std::size_t i = 0; i < 18; ++i) nodes[i].x = 23.0 + static_cast<double>(i);
  nodes[18].x = 20.0;  // w, isolated
  LmacConfig cfg;
  cfg.slots_per_frame = 3;
  cfg.ticks_per_slot = 4;
  cfg.timeout_frames = 2;
  Lockstep run(net::Topology(std::move(nodes), 1.1), cfg);
  const SimTime frame = cfg.frame_ticks();
  const NodeId w = 18;
  const auto run_frames = [&](std::int64_t frames) {
    run.run_until((run.mac.current_frame() + frames) * frame - 1);
    ASSERT_TRUE(run.same());
  };
  run_frames(6);
  net::Node x_node, r_node;
  x_node.x = 22.0;
  r_node.x = 21.0;
  const NodeId x = run.topo.add_node(x_node);
  const NodeId r = run.topo.add_node(r_node);
  run_frames(3);
  EXPECT_EQ(run.mac.slot_of(x), kNoSlot);
  EXPECT_EQ(run.mac.slot_of(r), kNoSlot);
  run.topo.kill_node(w);
  run_frames(5);
  EXPECT_EQ(run.mac.known_neighbors(r), std::vector<NodeId>{w});  // past timeout
  run.topo.kill_node(x);
  run_frames(3);
  EXPECT_NE(run.mac.slot_of(r), kNoSlot);
  const auto lost_w = [&](const Event& e) {
    return e.kind == Kind::Lost && e.frame == 15 && e.self == r && e.other == w;
  };
  EXPECT_EQ(std::count_if(run.log.events.begin(), run.log.events.end(), lost_w), 1);
  EXPECT_TRUE(run.mac.known_neighbors(r).empty());
}

// An explicit-link topology drops a link that names a node dead from the
// start, so neither MAC primes an entry for it and the alive neighbours'
// tables never list it.
TEST(LmacReference, NeighbourDeadAtStartTimesOut) {
  std::vector<net::Node> nodes(4);
  nodes[2].alive = false;
  LmacConfig cfg;
  cfg.slots_per_frame = 8;
  cfg.ticks_per_slot = 2;
  cfg.timeout_frames = 3;
  Lockstep run(net::Topology(std::move(nodes), {{0, 1}, {1, 2}, {1, 3}}), cfg);
  run.run_until(6 * cfg.frame_ticks() - 1);
  ASSERT_TRUE(run.same());
  EXPECT_EQ(run.mac.known_neighbors(1), (std::vector<NodeId>{0, 3}));
}

}  // namespace
}  // namespace dirq::mac
