// Large-topology node churn under the LMAC transport: the §4.2 cross-layer
// neighbour-lost → tree-repair path exercised at 500 nodes (ROADMAP
// follow-on from PR 2 / PR 4 — the repair path had no large-topology test).
//
// Scaled placements route kill/add through the grid spatial index
// (Topology::kill_node / add_node query 3x3 cell neighbourhoods), and LMAC
// death detection is timeout-based — a silently killed node is discovered
// by its neighbours missing its control slot, which must drive
// DirqNetwork's tree repair exactly once per victim. The environment is
// the counter-based fast backend: churn at this scale is exactly the
// workload the O(1)-access field exists for, and the repair logic is
// backend-agnostic.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/lmac_transport.hpp"
#include "core/network.hpp"
#include "data/fast_field.hpp"
#include "mac/lmac.hpp"
#include "net/placement.hpp"
#include "query/query.hpp"
#include "query/workload.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace dirq::core {
namespace {

constexpr std::size_t kNodes = 500;

struct ScaleChurnWorld {
  sim::Rng rng{42};
  net::Topology topo;
  data::FastEnvironment env;
  sim::Scheduler sched;
  mac::LmacConfig mac_cfg;
  mac::LmacNetwork mac;
  DirqNetwork net;
  LmacTransport transport;
  std::set<NodeId> repaired;

  ScaleChurnWorld()
      : topo(net::random_connected(net::scaled_placement(kNodes), rng)),
        env(topo, 4, rng.substream("environment")),
        mac_cfg(make_mac_cfg()),
        mac(sched, topo, mac_cfg),
        net(topo, /*root=*/0, make_net_cfg()),
        transport(mac, static_cast<MessageSink&>(net)) {
    net.use_transport(transport);
    transport.set_on_neighbor_lost([this](NodeId, NodeId dead) {
      // One repair per victim; LMAC reports once per surviving neighbour.
      if (repaired.insert(dead).second) {
        net.handle_node_death(dead, current_epoch());
      }
    });
    mac.start();
  }

  static mac::LmacConfig make_mac_cfg() {
    // 64 slots so the denser 2-hop neighbourhoods of a 500-node scaled
    // placement always elect (the paper-scale default of 32 is sized for
    // 50 nodes); 64 x 16 ticks keeps one frame == one sensing epoch.
    mac::LmacConfig cfg;
    cfg.slots_per_frame = 64;
    cfg.ticks_per_slot = 16;
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
    return sched.now() / mac_cfg.frame_ticks();
  }

  void run_epochs(std::int64_t epochs) {
    for (std::int64_t i = 0; i < epochs; ++i) {
      const std::int64_t epoch = current_epoch();
      env.advance_to(epoch);
      net.process_epoch(env, epoch);
      sched.run_until(sched.now() + mac_cfg.frame_ticks());
    }
  }

  /// Injects a full-span temperature query and returns coverage of the
  /// ground-truth involved set after a dissemination window.
  double probe_coverage() {
    query::RangeQuery q{/*id=*/next_query_id_++, kSensorTemperature, -1e9, 1e9,
                        current_epoch()};
    const query::Involvement truth =
        query::compute_involvement(q, topo, net.tree(), env);
    net.inject_async(0, q, current_epoch());
    sched.run_until(sched.now() + 16 * mac_cfg.frame_ticks());
    const QueryOutcome out = net.collect_outcome();
    if (truth.involved.empty()) return 0.0;
    std::size_t reached = 0;
    for (NodeId u : truth.involved) {
      if (std::binary_search(out.received.begin(), out.received.end(), u)) {
        ++reached;
      }
    }
    return 100.0 * static_cast<double>(reached) /
           static_cast<double>(truth.involved.size());
  }

  QueryId next_query_id_ = 1;
};

TEST(ChurnAtScale, LmacTimeoutDrivesTreeRepairAt500Nodes) {
  ScaleChurnWorld w;
  w.run_epochs(6);  // settle: announce waves + first samples

  ASSERT_EQ(w.net.tree().size(), w.topo.alive_count());
  const double before = w.probe_coverage();
  EXPECT_GT(before, 95.0);

  // Kill one internal (forwarding) node and one leaf, silently: no
  // notification reaches DirQ except through LMAC's control timeout.
  const std::vector<NodeId>& order = w.net.tree().bfs_order();
  NodeId internal = kNoNode;
  for (NodeId u : order) {
    if (u != w.net.root(0) && !w.net.tree().children(u).empty()) {
      internal = u;
      break;
    }
  }
  ASSERT_NE(internal, kNoNode);
  const NodeId leaf = w.net.tree().leaves().back();
  ASSERT_NE(leaf, internal);

  w.topo.kill_node(internal);
  w.topo.kill_node(leaf);
  // timeout_frames = 3, so 8 epochs comfortably covers detection + the
  // repair announce wave at depth.
  w.run_epochs(8);

  EXPECT_TRUE(w.repaired.contains(internal))
      << "internal node death must surface through the MAC timeout";
  EXPECT_TRUE(w.repaired.contains(leaf));
  // The repaired tree spans every alive node (scaled placements stay
  // connected under two removals with overwhelming margin at k~8; if this
  // ever flakes the topology itself became disconnected, which is a
  // placement bug, not a repair bug).
  EXPECT_EQ(w.net.tree().size(), w.topo.alive_count());
  EXPECT_FALSE(w.net.tree().in_tree(internal));
  EXPECT_FALSE(w.net.tree().in_tree(leaf));

  // Orphaned children were re-parented: the dead internal node's former
  // subtree is still reachable.
  const double after = w.probe_coverage();
  EXPECT_GT(after, 95.0);
}

TEST(ChurnAtScale, GridIndexedAdditionJoinsTreeAndMac) {
  ScaleChurnWorld w;
  w.run_epochs(6);

  // Deploy a newcomer near the middle of the area: add_node routes link
  // construction through the spatial index at this scale.
  net::Node fresh;
  fresh.x = 150.0;
  fresh.y = 150.0;
  fresh.sensors = {kSensorTemperature, kSensorHumidity};
  const NodeId newcomer = w.topo.add_node(fresh);
  ASSERT_GT(w.topo.neighbors(newcomer).size(), 0u)
      << "newcomer must be in radio range of the existing deployment";
  w.net.handle_node_addition(newcomer, w.current_epoch());
  w.run_epochs(8);  // join: listen a frame, elect, announce

  EXPECT_TRUE(w.net.tree().in_tree(newcomer));
  EXPECT_NE(w.net.tree().parent(newcomer), kNoNode);
  EXPECT_NE(w.mac.slot_of(newcomer), mac::kNoSlot);
  EXPECT_EQ(w.net.tree().size(), w.topo.alive_count());

  const double cov = w.probe_coverage();
  EXPECT_GT(cov, 95.0);
}

}  // namespace
}  // namespace dirq::core
