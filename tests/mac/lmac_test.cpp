// LMAC: slot election (2-hop exclusivity), frame loop, delivery, neighbour
// death detection via control-message timeout, node join.
#include "mac/lmac.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/placement.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace dirq::mac {
namespace {

net::Topology line(std::size_t n) {
  std::vector<net::Node> nodes(n);
  for (std::size_t i = 0; i < n; ++i) nodes[i].x = static_cast<double>(i);
  return net::Topology(std::move(nodes), 1.1);
}

TEST(ElectSlots, TwoHopExclusive) {
  net::Topology t = line(6);
  const auto slots = elect_slots(t, 0, 8);
  for (NodeId u = 0; u < t.size(); ++u) {
    ASSERT_NE(slots[u], kNoSlot);
    std::set<NodeId> two_hop;
    for (NodeId v : t.neighbors(u)) {
      two_hop.insert(v);
      for (NodeId w : t.neighbors(v)) {
        if (w != u) two_hop.insert(w);
      }
    }
    for (NodeId v : two_hop) {
      EXPECT_NE(slots[u], slots[v]) << "nodes " << u << " and " << v;
    }
  }
}

TEST(ElectSlots, LineNeedsOnlyThreeSlots) {
  net::Topology t = line(10);
  const auto slots = elect_slots(t, 0, 3);
  for (NodeId u = 0; u < t.size(); ++u) EXPECT_LT(slots[u], 3);
}

TEST(ElectSlots, ThrowsWhenFrameTooShort) {
  net::Topology t = line(10);
  EXPECT_THROW(elect_slots(t, 0, 2), std::runtime_error);
}

TEST(ElectSlots, SkipsDeadNodes) {
  net::Topology t = line(4);
  t.kill_node(2);
  const auto slots = elect_slots(t, 0, 8);
  EXPECT_EQ(slots[2], kNoSlot);
  EXPECT_NE(slots[0], kNoSlot);
  // Node 3 is disconnected but alive: still gets a slot.
  EXPECT_NE(slots[3], kNoSlot);
}

TEST(ElectSlots, PaperTopologyFitsIn32Slots) {
  sim::Rng rng(42);
  net::Topology t = net::random_connected(net::RandomPlacementConfig{}, rng);
  const auto slots = elect_slots(t, 0, 32);
  for (NodeId u = 0; u < t.size(); ++u) EXPECT_NE(slots[u], kNoSlot);
}

struct Recorder final : LinkObserver {
  std::vector<std::pair<NodeId, std::string>> messages;  // (receiver, payload)
  std::vector<std::pair<NodeId, NodeId>> lost;            // (self, neighbor)
  std::vector<std::pair<NodeId, NodeId>> found;
  void on_message(NodeId self, const Frame& f) override {
    messages.emplace_back(self, std::any_cast<std::string>(f.payload));
  }
  void on_neighbor_lost(NodeId self, NodeId nb) override {
    lost.emplace_back(self, nb);
  }
  void on_neighbor_found(NodeId self, NodeId nb) override {
    found.emplace_back(self, nb);
  }
};

struct Harness {
  sim::Scheduler sched;
  net::Topology topo;
  LmacConfig cfg;
  LmacNetwork mac;
  Recorder rec;

  explicit Harness(net::Topology t, LmacConfig c = {})
      : topo(std::move(t)), cfg(c), mac(sched, topo, cfg) {
    mac.set_observer(&rec);
    mac.start();
  }
  void run_frames(std::int64_t frames) {
    sched.run_until(sched.now() + frames * cfg.frame_ticks());
  }
};

TEST(Lmac, StartAssignsSlotsToAllAliveNodes) {
  Harness h(line(5));
  for (NodeId u = 0; u < 5; ++u) EXPECT_NE(h.mac.slot_of(u), kNoSlot);
}

TEST(Lmac, UnicastDeliversWithinOneFrame) {
  Harness h(line(3));
  h.mac.send(0, 1, std::string("hello"));
  h.run_frames(1);
  ASSERT_EQ(h.rec.messages.size(), 1u);
  EXPECT_EQ(h.rec.messages[0].first, 1u);
  EXPECT_EQ(h.rec.messages[0].second, "hello");
}

TEST(Lmac, UnicastToNonNeighborIsLost) {
  Harness h(line(4));
  h.mac.send(0, 3, std::string("far"));  // 3 hops away
  h.run_frames(2);
  EXPECT_TRUE(h.rec.messages.empty());
  EXPECT_EQ(h.mac.data_tx(0), 1);  // sender still paid
}

TEST(Lmac, BroadcastReachesAllNeighbors) {
  Harness h(line(3));
  h.mac.send(1, kNoNode, std::string{});  // via send() would unicast; use broadcast
  h.mac.broadcast(1, std::string("all"));
  h.run_frames(1);
  std::set<NodeId> receivers;
  for (auto& [id, payload] : h.rec.messages) {
    if (payload == "all") receivers.insert(id);
  }
  EXPECT_EQ(receivers, (std::set<NodeId>{0, 2}));
}

TEST(Lmac, EnergyAccountingPerMessage) {
  Harness h(line(3));
  h.mac.send(0, 1, std::string("a"));
  h.mac.send(0, 1, std::string("b"));
  h.run_frames(1);
  EXPECT_EQ(h.mac.data_tx(0), 2);
  EXPECT_EQ(h.mac.data_rx(1), 2);
  EXPECT_EQ(h.mac.data_rx(2), 0);  // not addressed
  EXPECT_EQ(h.mac.total_data_cost(), 4);
}

TEST(Lmac, ControlTrafficAccrues) {
  Harness h(line(3));
  h.run_frames(5);
  // Every alive node transmits its control section once per frame.
  EXPECT_GE(h.mac.control_tx(0), 4);
  EXPECT_GE(h.mac.control_rx(1), 8);  // hears both neighbours
}

TEST(Lmac, DeadNeighborDetectedByTimeout) {
  LmacConfig cfg;
  cfg.timeout_frames = 3;
  Harness h(line(3), cfg);
  h.run_frames(2);
  h.topo.kill_node(2);
  h.run_frames(cfg.timeout_frames + 2);
  bool node1_lost_2 = false;
  for (auto [self, nb] : h.rec.lost) {
    if (self == 1 && nb == 2) node1_lost_2 = true;
    EXPECT_EQ(nb, 2u);  // only node 2 died
  }
  EXPECT_TRUE(node1_lost_2);
}

TEST(Lmac, NoFalseDeathsOnHealthyNetwork) {
  Harness h(line(5));
  h.run_frames(20);
  EXPECT_TRUE(h.rec.lost.empty());
}

TEST(Lmac, DeadNodeSlotIsFreed) {
  Harness h(line(3));
  const int old_slot = h.mac.slot_of(2);
  ASSERT_NE(old_slot, kNoSlot);
  h.topo.kill_node(2);
  EXPECT_EQ(h.mac.slot_of(2), kNoSlot);
}

TEST(Lmac, JoiningNodeClaimsSlotAndIsDiscovered) {
  Harness h(line(3));
  h.run_frames(2);
  net::Node newcomer;
  newcomer.x = 3.0;
  newcomer.y = 0.0;
  const NodeId id = h.topo.add_node(newcomer);  // neighbour of node 2
  h.run_frames(3);
  EXPECT_NE(h.mac.slot_of(id), kNoSlot);
  bool discovered = false;
  for (auto [self, nb] : h.rec.found) {
    if (self == 2 && nb == id) discovered = true;
  }
  EXPECT_TRUE(discovered);
  // And it can exchange data.
  h.mac.send(id, 2, std::string("hi"));
  h.run_frames(1);
  bool delivered = false;
  for (auto& [r, p] : h.rec.messages) {
    if (r == 2 && p == "hi") delivered = true;
  }
  EXPECT_TRUE(delivered);
}

TEST(Lmac, JoinerAvoidsTwoHopCollisions) {
  Harness h(line(4));
  h.run_frames(2);
  net::Node newcomer;
  newcomer.x = 2.5;  // neighbour of nodes 2 and 3
  const NodeId id = h.topo.add_node(newcomer);
  h.run_frames(3);
  const int s = h.mac.slot_of(id);
  ASSERT_NE(s, kNoSlot);
  for (NodeId v : h.topo.neighbors(id)) {
    EXPECT_NE(s, h.mac.slot_of(v));
    for (NodeId w : h.topo.neighbors(v)) {
      if (w != id) {
        EXPECT_NE(s, h.mac.slot_of(w));
      }
    }
  }
}

TEST(Lmac, KnownNeighborsTracksTopology) {
  Harness h(line(3));
  h.run_frames(2);
  EXPECT_EQ(h.mac.known_neighbors(1), (std::vector<NodeId>{0, 2}));
}

TEST(Lmac, ExplicitLinkToANodeDeadAtStartIsNeverHeard) {
  // An explicit-link topology drops links that name a dead node, so the
  // election never reaches it, no section reaches it, and no alive node's
  // table lists it or later loses it. Two shapes: the dead node hangs off
  // the election root's component, or forms one with an alive node that
  // root cannot reach.
  LmacConfig cfg;
  cfg.timeout_frames = 2;
  for (const auto& links :
       {std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}},
        std::vector<std::pair<NodeId, NodeId>>{{1, 2}}}) {
    std::vector<net::Node> nodes(3);
    nodes[2].alive = false;
    Harness h(net::Topology(std::move(nodes), links), cfg);
    EXPECT_EQ(elect_slots(h.topo, 0, cfg.slots_per_frame)[2], kNoSlot);
    h.run_frames(2);
    EXPECT_EQ(h.mac.control_rx(2), 0);
    const std::vector<NodeId> expect =
        links.size() == 2 ? std::vector<NodeId>{0} : std::vector<NodeId>{};
    EXPECT_EQ(h.mac.known_neighbors(1), expect);
    h.run_frames(cfg.timeout_frames + 1);
    EXPECT_TRUE(h.rec.lost.empty());
  }
}

void expect_rejected_before_start(const std::function<void()>& enqueue) {
  try {
    enqueue();
    ADD_FAILURE() << "enqueue accepted by an unstarted MAC";
  } catch (const std::logic_error& e) {
    // std::out_of_range is a logic_error too: match the message.
    EXPECT_NE(std::string(e.what()).find("before start()"), std::string::npos)
        << e.what();
  }
}

void expect_unstarted(LmacNetwork& mac) {
  expect_rejected_before_start([&] { mac.send(0, 1, std::string{}); });
  expect_rejected_before_start([&] { mac.broadcast(0, std::string{}); });
}

TEST(Lmac, SendBeforeStartThrows) {
  sim::Scheduler sched;
  net::Topology topo = line(2);
  LmacNetwork mac(sched, topo, {});
  expect_unstarted(mac);
}

TEST(Lmac, FailedStartOnTooManySlotsLeavesMacUnstarted) {
  sim::Scheduler sched;
  net::Topology topo = line(3);
  LmacConfig cfg;
  cfg.slots_per_frame = 65;
  LmacNetwork mac(sched, topo, cfg);
  EXPECT_THROW(mac.start(), std::invalid_argument);
  EXPECT_THROW(mac.start(), std::invalid_argument);  // a retry fails alike
  expect_unstarted(mac);
}

TEST(Lmac, FailedElectionLeavesMacUnstarted) {
  sim::Scheduler sched;
  net::Topology topo = line(10);
  LmacConfig cfg;
  cfg.slots_per_frame = 2;  // a line needs 3 (ElectSlots.ThrowsWhenFrameTooShort)
  LmacNetwork mac(sched, topo, cfg);
  EXPECT_THROW(mac.start(), std::runtime_error);
  EXPECT_THROW(mac.start(), std::runtime_error);
  expect_unstarted(mac);
  EXPECT_EQ(sched.pending(), 0u);  // no frame loop was scheduled
}

TEST(Lmac, StartRejectsConfigsTheFrameLoopCannotRun) {
  // Zero ticks per slot never leaves the current tick, zero timeout frames
  // expires every entry every frame, and zero slots is no frame at all.
  // start() must refuse them before it schedules anything.
  sim::Rng rng(1);
  net::Topology topo = net::random_connected(net::scaled_placement(50), rng);
  const auto reject = [&](LmacConfig cfg, const char* what) {
    sim::Scheduler sched;
    LmacNetwork mac(sched, topo, cfg);
    try {
      mac.start();
      ADD_FAILURE() << what << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": wrong exception: " << e.what();
    }
    EXPECT_EQ(sched.pending(), 0u) << what;  // no frame loop was scheduled
    expect_unstarted(mac);
  };
  LmacConfig cfg;
  cfg.slots_per_frame = 64;
  cfg.ticks_per_slot = 16;
  LmacConfig bad = cfg;
  bad.slots_per_frame = 0;
  reject(bad, "slots_per_frame");
  bad = cfg;
  bad.ticks_per_slot = 0;
  reject(bad, "ticks_per_slot");
  bad = cfg;
  bad.timeout_frames = 0;
  reject(bad, "timeout_frames");
}

TEST(Lmac, JoinerWithNoFreeSlotRetriesEveryFrame) {
  // At the smallest frame the election accepts, some node's two hops use
  // every slot, and occupancy gossip is transitive: every view in the
  // (connected) network fills up, so a newcomer never finds a free slot.
  sim::Rng rng(1);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  std::size_t slots = 1;
  while (true) {
    try {
      (void)elect_slots(topo, 0, slots);
      break;
    } catch (const std::runtime_error&) {
      ++slots;
    }
  }
  LmacConfig cfg;
  cfg.slots_per_frame = slots;
  Harness h(std::move(topo), cfg);
  h.run_frames(20);  // views converge
  EXPECT_EQ(h.mac.join_retries(), 0u);
  NodeId densest = 0;
  for (NodeId u = 0; u < h.topo.size(); ++u) {
    if (h.topo.neighbors(u).size() > h.topo.neighbors(densest).size()) densest = u;
  }
  net::Node newcomer;
  newcomer.x = h.topo.node(densest).x + 0.1;
  newcomer.y = h.topo.node(densest).y;
  const NodeId id = h.topo.add_node(newcomer);
  h.run_frames(6);
  EXPECT_EQ(h.mac.slot_of(id), kNoSlot);
  EXPECT_EQ(h.mac.join_retries(), 6u);
}

TEST(Lmac, FrameCounterAdvances) {
  Harness h(line(2));
  h.run_frames(7);
  EXPECT_GE(h.mac.current_frame(), 6);
}

}  // namespace
}  // namespace dirq::mac
