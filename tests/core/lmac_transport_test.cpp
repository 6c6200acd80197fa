// LmacTransport unit behaviour: payload addressing (multicast target
// filtering), who hears each frame, and cross-layer callback wiring —
// isolated from the full DirQ network, which books the costs
// (tests/core/network_accounting_test.cpp).
#include "core/lmac_transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/scheduler.hpp"

namespace dirq::core {
namespace {

struct Capture final : MessageSink {
  struct Rec {
    NodeId to, from;
    Message msg;
  };
  std::vector<Rec> delivered;
  void deliver(NodeId to, NodeId from, const Message& msg) override {
    delivered.push_back({to, from, msg});
  }
};

struct Rig {
  sim::Scheduler sched;
  net::Topology topo;
  mac::LmacConfig cfg;
  mac::LmacNetwork mac;
  Capture sink;
  LmacTransport transport;

  explicit Rig(std::size_t n)
      : topo(star(n)), cfg(small()), mac(sched, topo, cfg),
        transport(mac, sink) {
    mac.start();
  }
  // Star: node 0 at the centre, leaves on the unit circle (far enough
  // apart that only centre-leaf links form). Unit-disk construction so
  // node revival (add_node) re-links correctly.
  static net::Topology star(std::size_t n) {
    std::vector<net::Node> nodes(n);
    for (std::size_t i = 1; i < n; ++i) {
      const double angle = 2.0 * 3.141592653589793 * static_cast<double>(i - 1) /
                           static_cast<double>(n - 1);
      nodes[i].x = std::cos(angle);
      nodes[i].y = std::sin(angle);
    }
    return net::Topology(std::move(nodes), 1.05);
  }
  static mac::LmacConfig small() {
    mac::LmacConfig c;
    c.slots_per_frame = 8;
    c.ticks_per_slot = 8;
    return c;
  }
  void run_frames(std::int64_t frames) {
    sched.run_until(sched.now() + frames * cfg.frame_ticks());
  }
};

TEST(LmacTransport, UnicastDelivers) {
  Rig r(3);
  r.transport.unicast(1, 0, Message{UpdateMessage{1, 0, 0, 1.0, 2.0, true}});
  r.run_frames(2);
  ASSERT_EQ(r.sink.delivered.size(), 1u);
  EXPECT_EQ(r.sink.delivered[0].to, 0u);
  EXPECT_EQ(r.sink.delivered[0].from, 1u);
}

TEST(LmacTransport, MulticastOnlyAddressedTargetsDecode) {
  Rig r(5);  // centre 0 with leaves 1-4
  const std::vector<NodeId> targets{1, 3};
  r.transport.multicast(0, targets, Message{QueryMessage{}});
  r.run_frames(2);
  std::vector<NodeId> receivers;
  for (const auto& rec : r.sink.delivered) receivers.push_back(rec.to);
  std::sort(receivers.begin(), receivers.end());
  // One data section, heard by every leaf; non-addressed leaves 2 and 4
  // slept through it and receive nothing.
  EXPECT_EQ(receivers, targets);
  EXPECT_EQ(r.mac.data_tx(0), 1);
}

TEST(LmacTransport, MulticastUnsortedTargetsAllReceiveExactlyOnce) {
  // Regression: multicast used to copy the caller's target list verbatim
  // into the Addressed payload while on_message filtered hearers with
  // std::binary_search — undefined behaviour on an unsorted list that in
  // practice silently dropped deliveries for callers passing children in
  // tree order. Every addressed node must decode exactly once; no
  // non-addressed hearer may receive it.
  Rig r(6);  // centre 0 with leaves 1-5
  const std::vector<NodeId> targets{4, 1, 3};  // deliberately not sorted
  r.transport.multicast(0, targets, Message{QueryMessage{}});
  r.run_frames(2);
  std::vector<NodeId> receivers;
  for (const auto& rec : r.sink.delivered) receivers.push_back(rec.to);
  std::sort(receivers.begin(), receivers.end());
  EXPECT_EQ(receivers, (std::vector<NodeId>{1, 3, 4}));
}

TEST(LmacTransport, EveryMessageKindIsDeliveredAndNothingBooked) {
  // The adapter only routes: every kind reaches the sink, and the ledger
  // behind costs() is the network's to write.
  Rig r(3);
  r.transport.unicast(1, 0, Message{QueryMessage{}});
  r.transport.unicast(1, 0, Message{UpdateMessage{}});
  r.transport.unicast(1, 0, Message{EhrMessage{}});
  r.transport.unicast(1, 0, Message{LocationAnnounce{}});
  r.transport.multicast(0, std::vector<NodeId>{2, 1}, Message{UpdateMessage{}});
  r.transport.broadcast(0, Message{EhrMessage{}});
  r.run_frames(2);
  std::vector<std::size_t> kinds;  // node 1's unicasts, in arrival order
  for (const auto& rec : r.sink.delivered) {
    if (rec.from == 1) kinds.push_back(rec.msg.index());
  }
  // FIFO, as sent: Query, Update, EHr, LocationAnnounce.
  EXPECT_EQ(kinds, (std::vector<std::size_t>{1, 0, 2, 3}));
  EXPECT_EQ(r.sink.delivered.size(), 8u);  // + 2 addressed + 2 broadcast
  EXPECT_EQ(r.transport.costs().total(), 0);
}

TEST(LmacTransport, ObserverForwardingStopsWhenHandlersUnset) {
  // Without handlers installed the adapter must swallow the MAC's
  // cross-layer notifications (default-constructed std::function).
  Rig r(3);
  r.run_frames(2);
  r.topo.kill_node(2);
  EXPECT_NO_FATAL_FAILURE(r.run_frames(r.cfg.timeout_frames + 2));
}

TEST(LmacTransport, EmptyMulticastSendsNothing) {
  Rig r(3);
  r.transport.multicast(0, {}, Message{QueryMessage{}});
  r.run_frames(2);
  EXPECT_TRUE(r.sink.delivered.empty());
  EXPECT_EQ(r.mac.data_tx(0), 0);
}

TEST(LmacTransport, BroadcastReachesAllNeighbours) {
  Rig r(4);
  r.transport.broadcast(0, Message{EhrMessage{}});
  r.run_frames(2);
  std::vector<NodeId> receivers;
  for (const auto& rec : r.sink.delivered) receivers.push_back(rec.to);
  std::sort(receivers.begin(), receivers.end());
  EXPECT_EQ(receivers, (std::vector<NodeId>{1, 2, 3}));
}

TEST(LmacTransport, CrossLayerCallbacksForward) {
  Rig r(3);
  std::vector<std::pair<NodeId, NodeId>> lost;
  r.transport.set_on_neighbor_lost(
      [&](NodeId self, NodeId nb) { lost.emplace_back(self, nb); });
  r.run_frames(2);
  r.topo.kill_node(2);
  r.run_frames(r.cfg.timeout_frames + 2);
  ASSERT_FALSE(lost.empty());
  EXPECT_EQ(lost[0].second, 2u);
}

TEST(LmacTransport, MessagesQueueAcrossFramesInOrder) {
  Rig r(3);
  for (int i = 0; i < 5; ++i) {
    r.transport.unicast(1, 0,
                        Message{UpdateMessage{1, 0, 0, double(i), double(i), true}});
  }
  r.run_frames(3);
  ASSERT_EQ(r.sink.delivered.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    const auto& u = std::get<UpdateMessage>(
        r.sink.delivered[static_cast<std::size_t>(i)].msg);
    EXPECT_DOUBLE_EQ(u.min, double(i));  // FIFO within the data section
  }
}

}  // namespace
}  // namespace dirq::core
