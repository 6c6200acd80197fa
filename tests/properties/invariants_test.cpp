// Property suites: protocol invariants swept across seeds (parameterised).
//
// These are the guarantees DirQ's correctness argument rests on, checked
// on a fresh random world per seed:
//   P1  dissemination reaches a root-connected set (no teleporting queries)
//   P2  believed sources are always a subset of the delivered set
//   P3  query cost decomposes exactly into transmissions + receptions
//   P4  the simulated flood equals the Eq. (3) closed form
//   P5  update traffic is monotonically non-increasing in theta
//   P6  identical seeds give identical runs (determinism)
//   P7  LMAC slot assignments stay 2-hop exclusive through churn
//   P8  after tree repair, every alive node is reachable and announced
//   P9  after tree repair, a node keeps child tuples and child boxes of its
//       current children only, dead and revived nodes included
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/experiment.hpp"
#include "core/flooding.hpp"
#include "core/network.hpp"
#include "mac/lmac.hpp"
#include "net/placement.hpp"
#include "net/tree_set.hpp"
#include "query/workload.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace dirq {
namespace {

struct World {
  net::Topology topo;
  data::Environment env;
  core::DirqNetwork net;

  explicit World(std::uint64_t seed, double theta_pct = 5.0)
      : topo(make(seed)),
        env(topo, 4, sim::Rng(seed).substream("env")),
        net(topo, 0, cfg(theta_pct)) {}

  static net::Topology make(std::uint64_t seed) {
    sim::Rng rng(seed);
    return net::random_connected(net::RandomPlacementConfig{}, rng);
  }
  static core::NetworkConfig cfg(double pct) {
    core::NetworkConfig c;
    c.fixed_pct = pct;
    return c;
  }
  void settle(std::int64_t epochs) {
    for (std::int64_t e = 0; e < epochs; ++e) {
      env.advance_to(e);
      net.process_epoch(env, e);
    }
  }
};

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, P1_ReceivedSetIsRootConnected) {
  World w(GetParam());
  w.settle(30);
  query::WorkloadGenerator gen(w.topo, w.net.tree(), w.env,
                               query::WorkloadConfig{0.4, 0.02},
                               sim::Rng(GetParam()).substream("wl"));
  for (int i = 0; i < 20; ++i) {
    const core::QueryOutcome out = w.net.inject(0, gen.next(30), 30);
    const std::set<NodeId> received(out.received.begin(), out.received.end());
    for (NodeId u : out.received) {
      const NodeId p = w.net.tree().parent(u);
      EXPECT_TRUE(p == w.net.root(0) || received.contains(p))
          << "node " << u << " received without its parent " << p;
    }
  }
}

TEST_P(SeedSweep, P2_BelievedSubsetOfReceived) {
  World w(GetParam());
  w.settle(30);
  query::WorkloadGenerator gen(w.topo, w.net.tree(), w.env,
                               query::WorkloadConfig{0.4, 0.02},
                               sim::Rng(GetParam()).substream("wl"));
  for (int i = 0; i < 20; ++i) {
    const core::QueryOutcome out = w.net.inject(0, gen.next(30), 30);
    EXPECT_TRUE(std::includes(out.received.begin(), out.received.end(),
                              out.believed_sources.begin(),
                              out.believed_sources.end()));
  }
}

TEST_P(SeedSweep, P3_QueryCostDecomposition) {
  World w(GetParam());
  w.settle(30);
  query::WorkloadGenerator gen(w.topo, w.net.tree(), w.env,
                               query::WorkloadConfig{0.4, 0.02},
                               sim::Rng(GetParam()).substream("wl"));
  for (int i = 0; i < 20; ++i) {
    const core::QueryOutcome out = w.net.inject(0, gen.next(30), 30);
    // Cost = (#nodes that transmitted, i.e. root + received nodes with at
    // least one forwarded child) + (#receptions = |received|). Receptions
    // follow directly; transmissions are bounded by the internal nodes of
    // the received set + 1 (root).
    const auto rx = static_cast<CostUnits>(out.received.size());
    EXPECT_GE(out.cost, rx);
    EXPECT_LE(out.cost, rx + static_cast<CostUnits>(out.received.size()) + 1);
  }
}

TEST_P(SeedSweep, P4_FloodMatchesClosedForm) {
  sim::Rng rng(GetParam());
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  core::FloodingScheme flood(topo);
  EXPECT_EQ(flood.flood_from(0).cost(), flood.analytical_cost());
}

TEST_P(SeedSweep, P5_UpdateTrafficMonotoneInTheta) {
  std::int64_t prev = std::numeric_limits<std::int64_t>::max();
  for (double pct : {2.0, 4.0, 8.0}) {
    World w(GetParam(), pct);
    w.settle(400);
    EXPECT_LE(w.net.updates_transmitted(), prev) << "theta " << pct;
    prev = w.net.updates_transmitted();
  }
}

TEST_P(SeedSweep, P6_Determinism) {
  World a(GetParam()), b(GetParam());
  a.settle(100);
  b.settle(100);
  EXPECT_EQ(a.net.updates_transmitted(), b.net.updates_transmitted());
  EXPECT_EQ(a.net.costs().update_cost(), b.net.costs().update_cost());
  for (SensorType t : a.topo.sensor_types_present()) {
    const auto* ta = a.net.node(0).table(0, t);
    const auto* tb = b.net.node(0).table(0, t);
    ASSERT_EQ(ta == nullptr, tb == nullptr);
    if (ta != nullptr) {
      EXPECT_DOUBLE_EQ(ta->aggregate()->min, tb->aggregate()->min);
      EXPECT_DOUBLE_EQ(ta->aggregate()->max, tb->aggregate()->max);
    }
  }
}

TEST_P(SeedSweep, P7_LmacSlotsStayTwoHopExclusiveThroughChurn) {
  sim::Rng rng(GetParam());
  net::RandomPlacementConfig pcfg;
  pcfg.node_count = 25;
  net::Topology topo = net::random_connected(pcfg, rng);
  sim::Scheduler sched;
  mac::LmacConfig mcfg;
  mcfg.slots_per_frame = 32;
  mac::LmacNetwork mac(sched, topo, mcfg);
  mac.start();
  sched.run_until(5 * mcfg.frame_ticks());

  // Kill a leaf-ish node, add a newcomer, let the MAC settle.
  topo.kill_node(static_cast<NodeId>(1 + rng.index(topo.size() - 1)));
  net::Node fresh;
  fresh.x = topo.node(2).x + 1.0;
  fresh.y = topo.node(2).y;
  topo.add_node(fresh);
  sched.run_until(sched.now() + 10 * mcfg.frame_ticks());

  for (NodeId u = 0; u < topo.size(); ++u) {
    if (!topo.is_alive(u) || mac.slot_of(u) == mac::kNoSlot) continue;
    for (NodeId v : topo.neighbors(u)) {
      if (mac.slot_of(v) != mac::kNoSlot) {
        EXPECT_NE(mac.slot_of(u), mac.slot_of(v)) << u << " vs " << v;
      }
      for (NodeId x : topo.neighbors(v)) {
        if (x != u && mac.slot_of(x) != mac::kNoSlot) {
          EXPECT_NE(mac.slot_of(u), mac.slot_of(x)) << u << " vs " << x;
        }
      }
    }
  }
}

TEST_P(SeedSweep, P8_TreeRepairKeepsNetworkQueryable) {
  World w(GetParam());
  w.settle(30);
  sim::Rng rng(GetParam() * 31 + 7);
  // Kill three random non-root nodes, repairing after each.
  for (int k = 0; k < 3; ++k) {
    std::vector<NodeId> alive;
    for (const net::Node& n : w.topo.nodes()) {
      if (n.alive && n.id != 0) alive.push_back(n.id);
    }
    const NodeId victim = alive[rng.index(alive.size())];
    w.topo.kill_node(victim);
    if (!w.topo.is_connected()) continue;  // partition: nothing to assert
    w.net.handle_node_death(victim, 31 + k);
    // Every alive node must be back in the tree...
    for (const net::Node& n : w.topo.nodes()) {
      if (n.alive) {
        EXPECT_TRUE(w.net.tree().in_tree(n.id)) << "node " << n.id;
      }
    }
    // ...and an all-matching query must reach every capable node.
    query::RangeQuery q{static_cast<QueryId>(900 + k), kSensorTemperature,
                        -1e9, 1e9, 40};
    const core::QueryOutcome out = w.net.inject(0, q, 40);
    const query::Involvement truth =
        query::compute_involvement(q, w.topo, w.net.tree(), w.env);
    const metrics::QueryAudit audit =
        metrics::audit_query(truth.involved, out.received);
    EXPECT_EQ(audit.missed, 0u) << "after death " << k;
  }
}

/// The bounding box of `u`'s subtree in `tree`, from the topology's
/// positions; a node outside the tree is its own subtree.
net::BBox true_subtree_box(const net::Topology& topo,
                           const net::SpanningTree& tree, NodeId u) {
  net::BBox box = net::BBox::point(topo.node(u).x, topo.node(u).y);
  if (!tree.in_tree(u)) return box;
  for (NodeId c : tree.children(u)) {
    box = box.join(true_subtree_box(topo, tree, c));
  }
  return box;
}

/// P9 on every node of every tree: each range table's child tuples are
/// keyed by the node's current children, and its subtree box is exactly
/// its subtree's, so no child box outlives its child.
void expect_only_current_children(const core::DirqNetwork& net,
                                  const net::Topology& topo,
                                  std::size_t type_count,
                                  const std::string& when) {
  for (TreeId k = 0; k < net.tree_count(); ++k) {
    for (NodeId u = 0; u < net.size(); ++u) {
      const core::DirqNode& node = net.node(u);
      const std::vector<NodeId>& children = node.children(k);
      for (SensorType t = 0; t < type_count; ++t) {
        const core::RangeTable* table = node.table(k, t);
        if (table == nullptr) continue;
        for (const auto& [child, range] : table->children()) {
          EXPECT_TRUE(std::binary_search(children.begin(), children.end(),
                                         child))
              << when << ": tree " << k << " node " << u << " type " << t
              << " holds a tuple of non-child " << child;
        }
      }
      EXPECT_EQ(node.subtree_box(k), true_subtree_box(topo, net.tree(k), u))
          << when << ": tree " << k << " node " << u;
    }
  }
}

TEST_P(SeedSweep, P9_RepairKeepsOnlyCurrentChildrenState) {
  for (std::size_t sinks : {1u, 3u}) {
    sim::Rng rng(GetParam());
    net::RandomPlacementConfig pcfg;
    pcfg.node_count = 30;
    net::Topology topo = net::random_connected(pcfg, rng);
    const std::size_t types = pcfg.sensor_type_count;
    data::Environment env(topo, types, rng.substream("env"));
    const std::vector<NodeId> roots = net::spread_roots(topo, sinks);
    core::DirqNetwork net(topo, roots, World::cfg(5.0));
    std::int64_t epoch = 0;
    const auto settle = [&](std::int64_t epochs) {
      for (const std::int64_t end = epoch + epochs; epoch < end; ++epoch) {
        env.advance_to(epoch);
        net.process_epoch(env, epoch);
      }
    };
    settle(20);
    // A seeded kill/revive script: a revived node comes back near a
    // random alive node, away from where it died.
    for (int step = 0; step < 12; ++step) {
      std::vector<NodeId> alive, dead;
      for (const net::Node& n : topo.nodes()) {
        if (std::find(roots.begin(), roots.end(), n.id) != roots.end()) {
          continue;
        }
        (n.alive ? alive : dead).push_back(n.id);
      }
      const std::string when = std::to_string(sinks) + " sinks, step " +
                               std::to_string(step);
      if (!dead.empty() && rng.bernoulli(0.5)) {
        net::Node revived = topo.node(dead[rng.index(dead.size())]);
        const net::Node& anchor = topo.node(alive[rng.index(alive.size())]);
        revived.x = anchor.x + rng.uniform(-10.0, 10.0);
        revived.y = anchor.y + rng.uniform(-10.0, 10.0);
        topo.add_node(revived);
        net.handle_node_addition(revived.id, epoch);
        expect_only_current_children(net, topo, types, when + " (revival)");
      } else {
        const NodeId victim = alive[rng.index(alive.size())];
        topo.kill_node(victim);
        net.handle_node_death(victim, epoch);
        expect_only_current_children(net, topo, types, when + " (death)");
      }
      settle(5);
      expect_only_current_children(net, topo, types, when + " (settled)");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace dirq
