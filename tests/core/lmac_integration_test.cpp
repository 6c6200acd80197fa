// DirQ over the real (simulated) LMAC: slot-synchronous update delivery,
// query dissemination across frames, and the §4.2 cross-layer path —
// LMAC's timeout-based death detection driving DirQ's tree repair.
#include <gtest/gtest.h>

#include "core/lmac_transport.hpp"
#include "core/network.hpp"
#include "mac/lmac.hpp"
#include "sim/scheduler.hpp"

namespace dirq::core {
namespace {

constexpr SensorType kT = kSensorTemperature;

struct LmacWorld {
  sim::Scheduler sched;
  net::Topology topo;
  mac::LmacConfig mac_cfg;
  mac::LmacNetwork mac;
  DirqNetwork net;
  LmacTransport transport;

  explicit LmacWorld(std::size_t n)
      : topo(make_line(n)),
        mac_cfg(make_mac_cfg()),
        mac(sched, topo, mac_cfg),
        net(topo, 0, make_net_cfg()),
        transport(mac, *static_cast<MessageSink*>(&net)) {
    net.use_transport(transport);
    // Cross-layer wiring: LMAC death detection triggers DirQ tree repair.
    // The parent-side notification is the one that matters for the range
    // tables; DirqNetwork::handle_node_death is idempotent per epoch.
    transport.set_on_neighbor_lost([this](NodeId, NodeId dead) {
      if (!repaired_.contains(dead)) {
        repaired_.insert(dead);
        net.handle_node_death(dead, current_epoch());
      }
    });
    mac.start();
  }

  static net::Topology make_line(std::size_t n) {
    std::vector<net::Node> nodes(n);
    for (std::size_t i = 0; i < n; ++i) {
      nodes[i].x = static_cast<double>(i);
      if (i > 0) nodes[i].sensors = {kT};
    }
    return net::Topology(std::move(nodes), 1.1);
  }
  static mac::LmacConfig make_mac_cfg() {
    mac::LmacConfig cfg;
    cfg.slots_per_frame = 8;
    cfg.ticks_per_slot = 16;  // frame = 128 ticks
    cfg.timeout_frames = 3;
    return cfg;
  }
  static NetworkConfig make_net_cfg() {
    NetworkConfig cfg;
    cfg.mode = NetworkConfig::ThetaMode::Fixed;
    cfg.fixed_pct = 5.0;
    return cfg;
  }

  [[nodiscard]] std::int64_t current_epoch() const {
    return sched.now() / kTicksPerEpoch;
  }
  void run_frames(std::int64_t frames) {
    sched.run_until(sched.now() + frames * mac_cfg.frame_ticks());
  }

  std::set<NodeId> repaired_;
};

TEST(LmacIntegration, UpdatesPropagateAcrossFrames) {
  LmacWorld w(4);
  w.net.node(3).observe_slot(0, kT, 30.0, 0);
  w.net.node(2).observe_slot(0, kT, 20.0, 0);
  w.net.node(1).observe_slot(0, kT, 10.0, 0);
  // Messages are queued in data sections; each hop needs a frame to relay.
  w.run_frames(5);
  const RangeTable* t = w.net.node(0).table(0, kT);
  ASSERT_NE(t, nullptr);
  const RangeAggregate agg = t->aggregate();
  ASSERT_TRUE(agg.has_value());
  EXPECT_DOUBLE_EQ(agg->min, 10.0 - 1.1);
  EXPECT_DOUBLE_EQ(agg->max, 30.0 + 1.1);
}

TEST(LmacIntegration, QueryDisseminatesSlotSynchronously) {
  LmacWorld w(4);
  w.net.node(3).observe_slot(0, kT, 30.0, 0);
  w.net.node(2).observe_slot(0, kT, 20.0, 0);
  w.net.node(1).observe_slot(0, kT, 10.0, 0);
  w.run_frames(5);
  w.net.inject_async(0, query::RangeQuery{1, kT, 29.5, 30.5, 1}, 1);
  w.run_frames(5);  // one hop per frame down the chain
  const QueryOutcome out = w.net.collect_outcome();
  EXPECT_EQ(out.received, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(out.believed_sources, (std::vector<NodeId>{3}));
}

TEST(LmacIntegration, MulticastChargesSingleTransmission) {
  LmacWorld w(4);
  w.net.node(3).observe_slot(0, kT, 30.0, 0);
  w.net.node(2).observe_slot(0, kT, 20.0, 0);
  w.net.node(1).observe_slot(0, kT, 10.0, 0);
  w.run_frames(5);
  const CostUnits qtx_before = w.transport.costs().query_tx;
  w.net.inject_async(0, query::RangeQuery{1, kT, 0.0, 100.0, 1}, 1);
  w.run_frames(5);
  (void)w.net.collect_outcome();
  // Forwarders 0, 1, 2: one query transmission each.
  EXPECT_EQ(w.transport.costs().query_tx - qtx_before, 3);
}

TEST(LmacIntegration, CrossLayerDeathDetectionRepairsTables) {
  LmacWorld w(4);
  w.net.node(3).observe_slot(0, kT, 30.0, 0);
  w.net.node(2).observe_slot(0, kT, 20.0, 0);
  w.net.node(1).observe_slot(0, kT, 10.0, 0);
  w.run_frames(5);
  // Node 3 dies silently; nobody tells DirQ directly.
  w.topo.kill_node(3);
  w.run_frames(8);  // timeout (3 frames) + repair traffic
  EXPECT_TRUE(w.repaired_.contains(3));
  const RangeTable* t2 = w.net.node(2).table(0, kT);
  if (t2 != nullptr) {
    EXPECT_FALSE(t2->child(3).has_value());
  }
  // Root aggregate no longer includes node 3's 31.1 ceiling.
  const RangeTable* t0 = w.net.node(0).table(0, kT);
  ASSERT_NE(t0, nullptr);
  ASSERT_TRUE(t0->aggregate().has_value());
  EXPECT_DOUBLE_EQ(t0->aggregate()->max, 20.0 + 1.1);
}

TEST(LmacIntegration, EhrFloodOverMac) {
  LmacWorld w(4);
  w.run_frames(2);
  w.net.broadcast_ehr(0, 180.0, 0);
  w.run_frames(6);  // one hop per frame
  // All four nodes rebroadcast once.
  EXPECT_EQ(w.transport.costs().control_tx, 4);
}

}  // namespace
}  // namespace dirq::core
