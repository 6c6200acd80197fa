// DirQ protocol end-to-end on small controlled topologies: update
// propagation, directed dissemination, heterogeneous types, EHr flooding,
// churn repair, sensor addition/removal.
#include "core/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net/placement.hpp"

namespace dirq::core {
namespace {

constexpr SensorType kT = kSensorTemperature;
constexpr SensorType kH = kSensorHumidity;

// theta = 5% of temperature span (22.0) = 1.1; of humidity span (45) = 2.25.
NetworkConfig fixed_cfg(double pct = 5.0) {
  NetworkConfig cfg;
  cfg.mode = NetworkConfig::ThetaMode::Fixed;
  cfg.fixed_pct = pct;
  return cfg;
}

/// Line 0-1-2-...-(n-1), every non-root node with the given sensors.
net::Topology line(std::size_t n, std::vector<SensorType> sensors = {kT}) {
  std::vector<net::Node> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i].x = static_cast<double>(i);
    if (i > 0) nodes[i].sensors = sensors;
  }
  return net::Topology(std::move(nodes), 1.1);
}

query::RangeQuery make_query(QueryId id, SensorType type, double lo, double hi,
                             std::int64_t epoch = 1) {
  return query::RangeQuery{id, type, lo, hi, epoch};
}

TEST(DirqNetwork, BootstrapUpdateCascade) {
  net::Topology topo = line(4);
  DirqNetwork net(topo, 0, fixed_cfg());
  net.node(3).observe_slot(0, kT, 30.0, 0);
  net.node(2).observe_slot(0, kT, 20.0, 0);
  net.node(1).observe_slot(0, kT, 10.0, 0);
  // Leaf-first: 3 + 2 + 1 = 6 update transmissions to converge.
  EXPECT_EQ(net.updates_transmitted(), 6);
  // Root's table aggregates the whole network.
  const RangeTable* t = net.node(0).table(0, kT);
  ASSERT_NE(t, nullptr);
  const RangeAggregate agg = t->aggregate();
  ASSERT_TRUE(agg.has_value());
  EXPECT_DOUBLE_EQ(agg->min, 10.0 - 1.1);
  EXPECT_DOUBLE_EQ(agg->max, 30.0 + 1.1);
}

TEST(DirqNetwork, StableReadingsSendNothing) {
  net::Topology topo = line(4);
  DirqNetwork net(topo, 0, fixed_cfg());
  for (NodeId u = 1; u <= 3; ++u) net.node(u).observe_slot(0, kT, 20.0, 0);
  const std::int64_t after_bootstrap = net.updates_transmitted();
  for (std::int64_t e = 1; e < 50; ++e) {
    for (NodeId u = 1; u <= 3; ++u) {
      net.node(u).observe_slot(0, kT, 20.0 + 0.1 * static_cast<double>(u % 2),
                               e);
    }
  }
  EXPECT_EQ(net.updates_transmitted(), after_bootstrap);
}

TEST(DirqNetwork, QueryDirectedOnlyToMatchingBranch) {
  net::Topology topo = line(4);
  DirqNetwork net(topo, 0, fixed_cfg());
  net.node(3).observe_slot(0, kT, 30.0, 0);
  net.node(2).observe_slot(0, kT, 20.0, 0);
  net.node(1).observe_slot(0, kT, 10.0, 0);
  // Window around node 3's reading only: all of 1, 2 forward; 3 believes.
  const QueryOutcome out = net.inject(0, make_query(1, kT, 29.5, 30.5), 1);
  EXPECT_EQ(out.received, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(out.believed_sources, (std::vector<NodeId>{3}));
}

TEST(DirqNetwork, QueryPrunedAtFirstNonOverlap) {
  net::Topology topo = line(4);
  DirqNetwork net(topo, 0, fixed_cfg());
  net.node(3).observe_slot(0, kT, 30.0, 0);
  net.node(2).observe_slot(0, kT, 20.0, 0);
  net.node(1).observe_slot(0, kT, 10.0, 0);
  // Window around node 1 only: stops there (subtree of 2 is [18.9, 31.1]).
  const QueryOutcome out = net.inject(0, make_query(2, kT, 9.9, 10.1), 1);
  EXPECT_EQ(out.received, (std::vector<NodeId>{1}));
  EXPECT_EQ(out.believed_sources, (std::vector<NodeId>{1}));
}

TEST(DirqNetwork, NonMatchingQueryReachesNobody) {
  net::Topology topo = line(4);
  DirqNetwork net(topo, 0, fixed_cfg());
  for (NodeId u = 1; u <= 3; ++u) net.node(u).observe_slot(0, kT, 20.0, 0);
  const QueryOutcome out = net.inject(0, make_query(3, kT, 100.0, 200.0), 1);
  EXPECT_TRUE(out.received.empty());
  EXPECT_EQ(out.cost, 0);
}

TEST(DirqNetwork, QueryCostIsOneTxPerForwarderPlusRx) {
  net::Topology topo = line(4);
  DirqNetwork net(topo, 0, fixed_cfg());
  net.node(3).observe_slot(0, kT, 30.0, 0);
  net.node(2).observe_slot(0, kT, 20.0, 0);
  net.node(1).observe_slot(0, kT, 10.0, 0);
  const QueryOutcome out = net.inject(0, make_query(4, kT, 0.0, 100.0), 1);
  // Forwarders: 0, 1, 2 (one multicast each) + receptions 1, 2, 3.
  EXPECT_EQ(out.cost, 6);
}

TEST(DirqNetwork, ThetaWideningCausesOvershoot) {
  // Query just outside node 3's true reading but inside its theta-widened
  // tuple: DirQ delivers anyway (the paper's overshoot mechanism).
  net::Topology topo = line(4);
  DirqNetwork net(topo, 0, fixed_cfg(9.0));  // theta = 1.98
  net.node(3).observe_slot(0, kT, 30.0, 0);
  net.node(2).observe_slot(0, kT, 20.0, 0);
  net.node(1).observe_slot(0, kT, 10.0, 0);
  const QueryOutcome out = net.inject(0, make_query(5, kT, 31.0, 31.5), 1);
  EXPECT_EQ(out.received, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(out.believed_sources, (std::vector<NodeId>{3}));  // false positive
}

TEST(DirqNetwork, HeterogeneousTypesRouteIndependently) {
  // Star-ish: 0 - 1 (temp), 0 - 2 (humidity).
  std::vector<net::Node> nodes(3);
  nodes[1].sensors = {kT};
  nodes[2].sensors = {kH};
  net::Topology topo(nodes, {{0, 1}, {0, 2}});
  DirqNetwork net(topo, 0, fixed_cfg());
  net.node(1).observe_slot(0, kT, 20.0, 0);
  net.node(2).observe_slot(0, kH, 60.0, 0);
  const QueryOutcome t_out = net.inject(0, make_query(1, kT, 0.0, 100.0), 1);
  EXPECT_EQ(t_out.received, (std::vector<NodeId>{1}));
  const QueryOutcome h_out = net.inject(0, make_query(2, kH, 0.0, 100.0), 1);
  EXPECT_EQ(h_out.received, (std::vector<NodeId>{2}));
}

TEST(DirqNetwork, Fig4ForwarderWithoutOwnSensorKeepsTables) {
  // Chain 0 - 1(humidity only) - 2(temp): node 1 must maintain a
  // temperature table for its child despite having no temp sensor.
  net::Topology topo = [&] {
    std::vector<net::Node> nodes(3);
    for (std::size_t i = 0; i < 3; ++i) nodes[i].x = static_cast<double>(i);
    nodes[1].sensors = {kH};
    nodes[2].sensors = {kT};
    return net::Topology(std::move(nodes), 1.1);
  }();
  DirqNetwork net(topo, 0, fixed_cfg());
  net.node(2).observe_slot(0, kT, 25.0, 0);
  net.node(1).observe_slot(0, kH, 55.0, 0);
  const RangeTable* t = net.node(1).table(0, kT);
  ASSERT_NE(t, nullptr);
  EXPECT_FALSE(t->own().has_value());
  EXPECT_TRUE(t->child(2).has_value());
  const QueryOutcome out = net.inject(0, make_query(1, kT, 24.0, 26.0), 1);
  EXPECT_EQ(out.received, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(out.believed_sources, (std::vector<NodeId>{2}));
}

TEST(DirqNetwork, SampleForMissingSensorIsIgnored) {
  net::Topology topo = line(3);
  DirqNetwork net(topo, 0, fixed_cfg());
  net.node(1).observe_slot(0, kH, 50.0, 0);  // node 1 has no humidity sensor
  EXPECT_EQ(net.updates_transmitted(), 0);
  EXPECT_EQ(net.node(1).table(0, kH), nullptr);
}

TEST(DirqNetwork, EhrFloodReachesEveryNodeOnce) {
  net::Topology topo = line(5);
  NetworkConfig cfg;
  cfg.mode = NetworkConfig::ThetaMode::Atc;
  DirqNetwork net(topo, 0, cfg);
  net.broadcast_ehr(0, 180.0, 0);
  // Control traffic = the location bootstrap (one unicast per non-root
  // node: 4 tx + 4 rx) + the EHr flood (every alive node broadcasts once:
  // 5 tx, 2 * links = 8 rx).
  EXPECT_EQ(net.costs().control_tx, 4 + 5);
  EXPECT_EQ(net.costs().control_rx, 4 + 8);
  // Every node's controller received a budget.
  for (NodeId u = 0; u < 5; ++u) {
    auto* atc = dynamic_cast<AtcController*>(&net.node(u).controller(0));
    ASSERT_NE(atc, nullptr);
    EXPECT_GT(atc->budget_per_hour(), 0.0) << "node " << u;
  }
}

TEST(DirqNetwork, SecondEhrRoundFloodsAgain) {
  net::Topology topo = line(3);
  DirqNetwork net(topo, 0, fixed_cfg());
  net.broadcast_ehr(0, 100.0, 0);
  net.broadcast_ehr(0, 120.0, kEpochsPerHour);
  // 2 location announcements at bootstrap + two 3-node EHr floods.
  EXPECT_EQ(net.costs().control_tx, 2 + 6);
}

TEST(DirqNetwork, LeafDeathRetractsItsRange) {
  net::Topology topo = line(4);
  DirqNetwork net(topo, 0, fixed_cfg());
  net.node(3).observe_slot(0, kT, 30.0, 0);
  net.node(2).observe_slot(0, kT, 20.0, 0);
  net.node(1).observe_slot(0, kT, 10.0, 0);
  topo.kill_node(3);
  net.handle_node_death(3, 1);
  // Node 2 dropped its only child entry; aggregates shrank up the chain.
  const RangeTable* t2 = net.node(2).table(0, kT);
  ASSERT_NE(t2, nullptr);
  EXPECT_FALSE(t2->child(3).has_value());
  const RangeAggregate root_agg = net.node(0).table(0, kT)->aggregate();
  ASSERT_TRUE(root_agg.has_value());
  EXPECT_DOUBLE_EQ(root_agg->max, 20.0 + 1.1);  // node 3's 31.1 is gone
  // A query for the dead node's range reaches nobody relevant.
  const QueryOutcome out = net.inject(0, make_query(9, kT, 29.5, 30.5), 2);
  EXPECT_TRUE(out.believed_sources.empty());
}

TEST(DirqNetwork, DiamondReparentingKeepsSubtreeReachable) {
  // 0-1, 0-2, 1-3, 2-3. BFS parents 3 under 1; killing 1 moves it to 2.
  std::vector<net::Node> nodes(4);
  nodes[1].sensors = {kT};
  nodes[2].sensors = {kT};
  nodes[3].sensors = {kT};
  net::Topology topo(nodes, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  DirqNetwork net(topo, 0, fixed_cfg());
  net.node(3).observe_slot(0, kT, 30.0, 0);
  net.node(2).observe_slot(0, kT, 20.0, 0);
  net.node(1).observe_slot(0, kT, 10.0, 0);
  ASSERT_EQ(net.tree().parent(3), 1u);
  topo.kill_node(1);
  net.handle_node_death(1, 1);
  EXPECT_EQ(net.tree().parent(3), 2u);
  // Node 2 now carries node 3's range; the query routes through it.
  const QueryOutcome out = net.inject(0, make_query(1, kT, 29.5, 30.5), 2);
  EXPECT_EQ(out.received, (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(out.believed_sources, (std::vector<NodeId>{3}));
}

TEST(DirqNetwork, RevivedNodeDropsItsFormerChildrenTuples) {
  // Unit-disk square (range 1.1): 0 (0,0), 1 (1,0), 2 (0,1), 3 (1,1). BFS
  // puts 3 under 1; killing 1 moves 3 under 2. Node 1 revives at (-1, 0),
  // a leaf of the root, and must not re-announce node 3's tuple.
  std::vector<net::Node> nodes(4);
  nodes[1].x = 1.0;
  nodes[2].y = 1.0;
  nodes[3].x = 1.0;
  nodes[3].y = 1.0;
  for (NodeId u = 1; u < 4; ++u) nodes[u].sensors = {kT};
  net::Topology topo(std::move(nodes), 1.1);
  DirqNetwork net(topo, 0, fixed_cfg());
  ASSERT_EQ(net.tree().parent(3), 1u);
  net.node(3).observe_slot(0, kT, 50.0, 0);
  topo.kill_node(1);
  net.handle_node_death(1, 1);
  ASSERT_EQ(net.tree().parent(3), 2u);
  net::Node revived = topo.node(1);
  revived.x = -1.0;
  topo.add_node(revived);
  net.handle_node_addition(1, 2);
  ASSERT_EQ(net.tree().parent(1), 0u);
  EXPECT_EQ(net.node(1).table(0, kT), nullptr);
  const QueryOutcome out = net.inject(0, make_query(1, kT, 49.0, 51.0), 2);
  EXPECT_EQ(out.received, (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(out.cost, 4);  // root and node 2 forward, 2 and 3 receive
}

TEST(DirqNetwork, NodeAdditionJoinsTreeAndAnnounces) {
  net::Topology topo = line(3);
  DirqNetwork net(topo, 0, fixed_cfg());
  net.node(2).observe_slot(0, kT, 20.0, 0);
  net.node(1).observe_slot(0, kT, 10.0, 0);
  net::Node newcomer;
  newcomer.x = 3.0;
  newcomer.sensors = {kT};
  const NodeId id = topo.add_node(newcomer);
  net.handle_node_addition(id, 1);
  EXPECT_TRUE(net.tree().in_tree(id));
  EXPECT_EQ(net.tree().parent(id), 2u);
  net.node(id).observe_slot(0, kT, 40.0, 1);
  const QueryOutcome out = net.inject(0, make_query(1, kT, 39.0, 41.0), 2);
  EXPECT_EQ(out.believed_sources, (std::vector<NodeId>{id}));
}

TEST(DirqNetwork, PostDeploymentSensorAddition) {
  net::Topology topo = line(3);
  DirqNetwork net(topo, 0, fixed_cfg());
  net.node(1).observe_slot(0, kT, 10.0, 0);
  net.handle_sensor_added(1, kH, 1);
  net.node(1).observe_slot(0, kH, 55.0, 1);
  // Humidity is now queryable even though deployment had none.
  const QueryOutcome out = net.inject(0, make_query(1, kH, 50.0, 60.0), 2);
  EXPECT_EQ(out.believed_sources, (std::vector<NodeId>{1}));
}

TEST(DirqNetwork, SensorRemovalRetractsType) {
  net::Topology topo = line(3, {kT, kH});
  DirqNetwork net(topo, 0, fixed_cfg());
  net.node(2).observe_slot(0, kH, 60.0, 0);
  net.node(1).observe_slot(0, kH, 50.0, 0);
  net.handle_sensor_removed(2, kH, 1);
  // Node 2's own humidity tuple is gone; a humidity query matching only
  // its old value must not believe node 2 a source.
  const QueryOutcome out = net.inject(0, make_query(1, kH, 58.0, 62.0), 2);
  EXPECT_TRUE(out.believed_sources.empty());
}

TEST(DirqNetwork, UpdateHookSeesEveryTransmission) {
  net::Topology topo = line(4);
  DirqNetwork net(topo, 0, fixed_cfg());
  std::int64_t hook_count = 0;
  net.set_update_hook([&](std::int64_t) { ++hook_count; });
  net.node(3).observe_slot(0, kT, 30.0, 0);
  net.node(2).observe_slot(0, kT, 20.0, 0);
  net.node(1).observe_slot(0, kT, 10.0, 0);
  EXPECT_EQ(hook_count, net.updates_transmitted());
  EXPECT_EQ(hook_count, 6);
}

TEST(DirqNetwork, NestedAuditThrows) {
  net::Topology topo = line(3);
  DirqNetwork net(topo, 0, fixed_cfg());
  net.inject_async(0, make_query(1, kT, 0.0, 1.0), 1);
  EXPECT_THROW(net.inject_async(0, make_query(2, kT, 0.0, 1.0), 1),
               std::logic_error);
  net.collect_outcome();
  EXPECT_THROW(net.collect_outcome(), std::logic_error);
}

TEST(DirqNetwork, ProcessEpochSamplesEverySensor) {
  sim::Rng rng(42);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  data::Environment env(topo, 4, rng.substream("env"));
  DirqNetwork net(topo, 0, fixed_cfg());
  env.advance_to(0);
  net.process_epoch(env, 0);
  // After the bootstrap epoch the root has a table for every type present.
  for (SensorType t : topo.sensor_types_present()) {
    EXPECT_NE(net.node(0).table(0, t), nullptr) << "type " << t;
  }
  EXPECT_GT(net.updates_transmitted(), 0);
}

TEST(DirqNetwork, RootAggregateCoversAllCurrentReadings) {
  sim::Rng rng(42);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  data::Environment env(topo, 4, rng.substream("env"));
  DirqNetwork net(topo, 0, fixed_cfg());
  for (std::int64_t e = 0; e < 20; ++e) {
    env.advance_to(e);
    net.process_epoch(env, e);
  }
  // Invariant: every node's current reading lies inside the root's
  // aggregate for that type, up to the accumulated hysteresis slack. Each
  // hop suppresses aggregate moves of at most theta (Fig. 3), so a reading
  // can sit at most depth * theta outside the root's stored range.
  for (SensorType t : topo.sensor_types_present()) {
    const RangeAggregate agg = net.node(0).table(0, t)->aggregate();
    ASSERT_TRUE(agg.has_value());
    const double theta = 0.05 * nominal_span(t);
    for (NodeId u : topo.nodes_with_sensor(t)) {
      const double r = env.reading(u, t);
      const double slack = theta * static_cast<double>(net.tree().depth(u));
      EXPECT_GE(r, agg->min - slack) << "node " << u << " type " << t;
      EXPECT_LE(r, agg->max + slack) << "node " << u << " type " << t;
    }
  }
}


TEST(DirqNetwork, PerNodeEnergyAccounting) {
  net::Topology topo = line(4);
  DirqNetwork net(topo, 0, fixed_cfg());
  // Location bootstrap: nodes 1-3 each announce once; 0-2 receive once.
  EXPECT_EQ(net.node_tx(3), 1);
  EXPECT_EQ(net.node_rx(2), 1);
  net.node(3).observe_slot(0, kT, 30.0, 0);
  net.node(2).observe_slot(0, kT, 20.0, 0);
  net.node(1).observe_slot(0, kT, 10.0, 0);
  // Bootstrap cascade: node 3 sent 1 location + 1 update; node 2 relayed
  // plus its own: 1 location + 2 updates; node 1: 1 + 3.
  EXPECT_EQ(net.node_tx(3), 2);
  EXPECT_EQ(net.node_tx(2), 3);
  EXPECT_EQ(net.node_tx(1), 4);
  EXPECT_EQ(net.node_tx(0), 0);  // root never transmits upward
  // Receptions: node 0 got 1 location + 3 updates from node 1.
  EXPECT_EQ(net.node_rx(0), 4);
  // A query to the deep end charges each hop.
  (void)net.inject(0, make_query(1, kT, 29.5, 30.5), 1);
  EXPECT_EQ(net.node_tx(0), 1);  // root forwarded
  EXPECT_EQ(net.node_rx(3), 1);  // the leaf's only reception is the query
  const CostUnits total_tx =
      net.node_tx(0) + net.node_tx(1) + net.node_tx(2) + net.node_tx(3);
  const CostUnits total_rx =
      net.node_rx(0) + net.node_rx(1) + net.node_rx(2) + net.node_rx(3);
  const CostLedger& ledger = net.costs();
  EXPECT_EQ(total_tx, ledger.query_tx + ledger.update_tx + ledger.control_tx);
  EXPECT_EQ(total_rx, ledger.query_rx + ledger.update_rx + ledger.control_rx);
}

TEST(DirqNetworkBatch, DuplicateSensorListsAreDedupedByTopology) {
  // The batched sampling path relies on a (node, type) pair occurring at
  // most once per epoch walk: pass 1 gathers on the gate's pre-epoch
  // state, and a duplicate's first consume would move next_due and desync
  // the per-type value cursors. Topology guarantees the invariant by
  // sorting + deduplicating every node's sensor list at every entry
  // point — this test pins that guarantee to the batching that needs it.
  std::vector<net::Node> nodes(4);
  for (std::size_t i = 0; i < 4; ++i) {
    nodes[i].x = static_cast<double>(i);
    nodes[i].sensors = {kT};
  }
  nodes[3].sensors = {kT, kT, kH, kT};  // duplicates via the constructor
  net::Topology topo(std::move(nodes), 1.1);
  EXPECT_EQ(topo.node(3).sensors, (std::vector<SensorType>{kT, kH}));

  net::Node late;
  late.x = 3.0;
  late.y = 1.0;
  late.sensors = {kH, kH, kH};  // duplicates via add_node
  const NodeId added = topo.add_node(late);
  EXPECT_EQ(topo.node(added).sensors, (std::vector<SensorType>{kH}));
  topo.add_sensor(added, kH);  // re-adding an existing type is a no-op
  EXPECT_EQ(topo.node(added).sensors, (std::vector<SensorType>{kH}));

  // And the batched epoch loop on such a topology keeps every node's own
  // tuple centred on its own reading (zero margin keeps the gate's
  // interval at 1, so any cursor desync would recur every epoch and
  // never self-correct).
  NetworkConfig cfg = fixed_cfg();
  cfg.sampling.enabled = true;
  cfg.sampling.margin_frac = 0.0;
  DirqNetwork net(topo, 0, cfg);
  data::Environment env(topo, 2, sim::Rng(7));
  for (std::int64_t e = 0; e < 12; ++e) {
    env.advance_to(e);
    net.process_epoch(env, e);
  }
  for (NodeId u = 1; u < 4; ++u) {
    const RangeTable* t = net.node(u).table(0, kT);
    ASSERT_NE(t, nullptr) << "node " << u;
    ASSERT_TRUE(t->own().has_value()) << "node " << u;
    const double r = env.reading(u, kT);
    EXPECT_GE(r, t->own()->min) << "node " << u;
    EXPECT_LE(r, t->own()->max) << "node " << u;
  }
}

}  // namespace
}  // namespace dirq::core
