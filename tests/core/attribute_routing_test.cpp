// The paper-§2 attribute extensions: location-constrained dissemination
// (static attribute) and conjunctive multi-attribute queries.
#include <gtest/gtest.h>

#include "core/network.hpp"
#include "metrics/audit.hpp"
#include "net/placement.hpp"
#include "query/workload.hpp"
#include "sim/rng.hpp"

namespace dirq::core {
namespace {

constexpr SensorType kT = kSensorTemperature;
constexpr SensorType kH = kSensorHumidity;

NetworkConfig fixed_cfg(double pct = 5.0) {
  NetworkConfig cfg;
  cfg.mode = NetworkConfig::ThetaMode::Fixed;
  cfg.fixed_pct = pct;
  return cfg;
}

/// Line 0-1-2-3 along x = 0,1,2,3 with temperature everywhere (non-root).
net::Topology line4() {
  std::vector<net::Node> nodes(4);
  for (std::size_t i = 0; i < 4; ++i) {
    nodes[i].x = static_cast<double>(i);
    if (i > 0) nodes[i].sensors = {kT, kH};
  }
  return net::Topology(std::move(nodes), 1.1);
}

TEST(LocationRouting, SubtreeBoxesAggregateAtBootstrap) {
  net::Topology topo = line4();
  DirqNetwork net(topo, 0, fixed_cfg());
  // Node 1's subtree spans x in [1, 3].
  const net::BBox box = net.node(1).subtree_box(0);
  EXPECT_DOUBLE_EQ(box.min_x, 1.0);
  EXPECT_DOUBLE_EQ(box.max_x, 3.0);
  // The root's view of child 1 covers the whole chain below it.
  const net::BBox root_box = net.node(0).subtree_box(0);
  EXPECT_DOUBLE_EQ(root_box.max_x, 3.0);
}

TEST(LocationRouting, RegionPrunesDissemination) {
  net::Topology topo = line4();
  DirqNetwork net(topo, 0, fixed_cfg());
  for (NodeId u = 1; u <= 3; ++u) net.node(u).observe_slot(0, kT, 20.0, 0);
  // Value window matches everyone; region covers only x <= 1.5.
  query::RangeQuery q{1, kT, 0.0, 100.0, 1};
  q.region = net::BBox{0.0, -1.0, 1.5, 1.0};
  const QueryOutcome out = net.inject(0, q, 1);
  EXPECT_EQ(out.received, (std::vector<NodeId>{1}));
  EXPECT_EQ(out.believed_sources, (std::vector<NodeId>{1}));
}

TEST(LocationRouting, RegionOutsideDeploymentReachesNobody) {
  net::Topology topo = line4();
  DirqNetwork net(topo, 0, fixed_cfg());
  for (NodeId u = 1; u <= 3; ++u) net.node(u).observe_slot(0, kT, 20.0, 0);
  query::RangeQuery q{1, kT, 0.0, 100.0, 1};
  q.region = net::BBox{100.0, 100.0, 120.0, 120.0};
  const QueryOutcome out = net.inject(0, q, 1);
  EXPECT_TRUE(out.received.empty());
}

TEST(LocationRouting, QueryWithoutRegionIsUnconstrained) {
  net::Topology topo = line4();
  DirqNetwork net(topo, 0, fixed_cfg());
  for (NodeId u = 1; u <= 3; ++u) net.node(u).observe_slot(0, kT, 20.0, 0);
  const QueryOutcome out =
      net.inject(0, query::RangeQuery{1, kT, 0.0, 100.0, 1}, 1);
  EXPECT_EQ(out.received.size(), 3u);
}

TEST(LocationRouting, ForwarderInsideRegionPathStillForwards) {
  // Region covers only node 3; nodes 1 and 2 must still forward (their
  // subtree boxes intersect the region even though they lie outside it).
  net::Topology topo = line4();
  DirqNetwork net(topo, 0, fixed_cfg());
  for (NodeId u = 1; u <= 3; ++u) net.node(u).observe_slot(0, kT, 20.0, 0);
  query::RangeQuery q{1, kT, 0.0, 100.0, 1};
  q.region = net::BBox{2.5, -1.0, 3.5, 1.0};
  const QueryOutcome out = net.inject(0, q, 1);
  EXPECT_EQ(out.received, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(out.believed_sources, (std::vector<NodeId>{3}));
}

TEST(LocationRouting, GroundTruthRespectsRegion) {
  sim::Rng rng(42);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  net::SpanningTree tree(topo, 0);
  data::Environment env(topo, 4, rng.substream("env"));
  env.advance_to(10);
  query::RangeQuery q{1, kT, -1000.0, 1000.0, 10};
  q.region = net::BBox{0.0, 0.0, 50.0, 50.0};  // quarter of the area
  const query::Involvement inv = query::compute_involvement(q, topo, tree, env);
  for (NodeId s : inv.sources) {
    EXPECT_TRUE(q.region->contains(topo.node(s).x, topo.node(s).y));
  }
  query::RangeQuery unconstrained{2, kT, -1000.0, 1000.0, 10};
  const query::Involvement all =
      query::compute_involvement(unconstrained, topo, tree, env);
  EXPECT_LT(inv.sources.size(), all.sources.size());
}

TEST(LocationRouting, RegionalQueriesCostLessThanUnconstrained) {
  sim::Rng rng(42);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  data::Environment env(topo, 4, rng.substream("env"));
  DirqNetwork net(topo, 0, fixed_cfg());
  for (std::int64_t e = 0; e < 50; ++e) {
    env.advance_to(e);
    net.process_epoch(env, e);
  }
  query::WorkloadGenerator gen(topo, net.tree(), env,
                               query::WorkloadConfig{0.4, 0.02},
                               rng.substream("wl"));
  CostUnits regional_cost = 0, full_cost = 0;
  for (int i = 0; i < 40; ++i) {
    query::RangeQuery q = gen.next_regional(50, 0.25);
    regional_cost += net.inject(0, q, 50).cost;
    q.id += 1000000;  // fresh id, same window, no region
    q.region.reset();
    full_cost += net.inject(0, q, 50).cost;
  }
  EXPECT_LT(regional_cost, full_cost);
}

TEST(LocationRouting, DeadSubtreeShrinksBoxes) {
  net::Topology topo = line4();
  DirqNetwork net(topo, 0, fixed_cfg());
  topo.kill_node(3);
  net.handle_node_death(3, 1);
  EXPECT_DOUBLE_EQ(net.node(1).subtree_box(0).max_x, 2.0);
}

TEST(MultiAttribute, ConjunctionRequiresAllPredicates) {
  net::Topology topo = line4();
  DirqNetwork net(topo, 0, fixed_cfg());
  // Node 2 matches both windows; node 3 only the temperature one.
  net.node(1).observe_slot(0, kT, 10.0, 0);
  net.node(1).observe_slot(0, kH, 40.0, 0);
  net.node(2).observe_slot(0, kT, 20.0, 0);
  net.node(2).observe_slot(0, kH, 60.0, 0);
  net.node(3).observe_slot(0, kT, 20.5, 0);
  net.node(3).observe_slot(0, kH, 80.0, 0);
  query::MultiQuery q;
  q.id = 1;
  q.epoch = 1;
  q.predicates = {{kT, 19.0, 21.0}, {kH, 55.0, 65.0}};
  const QueryOutcome out = net.inject(0, q, 1);
  EXPECT_EQ(out.believed_sources, (std::vector<NodeId>{2}));
}

TEST(MultiAttribute, PrunesBranchMissingOneType) {
  // 0 - 1(temp only), 0 - 2(temp+humidity): a temp+humidity conjunction
  // must never enter node 1's branch (it cannot satisfy the humidity
  // conjunct anywhere).
  std::vector<net::Node> nodes(3);
  nodes[1].sensors = {kT};
  nodes[2].sensors = {kT, kH};
  net::Topology topo(nodes, {{0, 1}, {0, 2}});
  DirqNetwork net(topo, 0, fixed_cfg());
  net.node(1).observe_slot(0, kT, 20.0, 0);
  net.node(2).observe_slot(0, kT, 20.0, 0);
  net.node(2).observe_slot(0, kH, 60.0, 0);
  query::MultiQuery q;
  q.id = 1;
  q.epoch = 1;
  q.predicates = {{kT, 0.0, 100.0}, {kH, 0.0, 100.0}};
  const QueryOutcome out = net.inject(0, q, 1);
  EXPECT_EQ(out.received, (std::vector<NodeId>{2}));
}

TEST(MultiAttribute, EmptyPredicateListReachesNobody) {
  net::Topology topo = line4();
  DirqNetwork net(topo, 0, fixed_cfg());
  for (NodeId u = 1; u <= 3; ++u) net.node(u).observe_slot(0, kT, 20.0, 0);
  query::MultiQuery q;
  q.id = 1;
  const QueryOutcome out = net.inject(0, q, 1);
  EXPECT_TRUE(out.received.empty());
}

TEST(MultiAttribute, SinglePredicateMatchesRangeQueryBehaviour) {
  net::Topology topo = line4();
  DirqNetwork net(topo, 0, fixed_cfg());
  net.node(3).observe_slot(0, kT, 30.0, 0);
  net.node(2).observe_slot(0, kT, 20.0, 0);
  net.node(1).observe_slot(0, kT, 10.0, 0);
  query::MultiQuery mq;
  mq.id = 1;
  mq.predicates = {{kT, 29.5, 30.5}};
  const QueryOutcome multi = net.inject(0, mq, 1);
  const QueryOutcome single =
      net.inject(0, query::RangeQuery{2, kT, 29.5, 30.5, 1}, 1);
  EXPECT_EQ(multi.received, single.received);
  EXPECT_EQ(multi.believed_sources, single.believed_sources);
  EXPECT_EQ(multi.cost, single.cost);
}

TEST(MultiAttribute, GroundTruthConjunction) {
  sim::Rng rng(42);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  net::SpanningTree tree(topo, 0);
  data::Environment env(topo, 4, rng.substream("env"));
  env.advance_to(10);
  query::MultiQuery q;
  q.id = 1;
  q.predicates = {{kT, -1000.0, 1000.0}, {kH, -1000.0, 1000.0}};
  const query::Involvement inv = query::compute_involvement(q, topo, tree, env);
  // Sources = nodes carrying BOTH sensors (windows are unbounded).
  std::size_t both = 0;
  for (const net::Node& n : topo.nodes()) {
    if (n.id != 0 && n.has_sensor(kT) && n.has_sensor(kH)) ++both;
  }
  EXPECT_EQ(inv.sources.size(), both);
}

TEST(MultiAttribute, WorkloadGeneratorProducesSatisfiableQueries) {
  sim::Rng rng(42);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  net::SpanningTree tree(topo, 0);
  data::Environment env(topo, 4, rng.substream("env"));
  env.advance_to(20);
  query::WorkloadGenerator gen(topo, tree, env,
                               query::WorkloadConfig{0.4, 0.02},
                               rng.substream("wl"));
  for (int i = 0; i < 30; ++i) {
    const query::MultiQuery q = gen.next_multi(20, 2);
    ASSERT_EQ(q.predicates.size(), 2u);
    EXPECT_NE(q.predicates[0].type, q.predicates[1].type);
    const query::Involvement inv =
        query::compute_involvement(q, topo, tree, env);
    EXPECT_GE(inv.sources.size(), 1u) << "query " << i << " unsatisfiable";
  }
}

TEST(MultiAttribute, DisseminationCoversAllTrueSources) {
  sim::Rng rng(42);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  data::Environment env(topo, 4, rng.substream("env"));
  DirqNetwork net(topo, 0, fixed_cfg(3.0));
  for (std::int64_t e = 0; e < 30; ++e) {
    env.advance_to(e);
    net.process_epoch(env, e);
  }
  query::WorkloadGenerator gen(topo, net.tree(), env,
                               query::WorkloadConfig{0.4, 0.02},
                               rng.substream("wl"));
  sim::RunningStat coverage;
  for (int i = 0; i < 30; ++i) {
    const query::MultiQuery q = gen.next_multi(30, 2);
    const query::Involvement truth =
        query::compute_involvement(q, topo, net.tree(), env);
    const QueryOutcome out = net.inject(0, q, 30);
    const metrics::QueryAudit audit =
        metrics::audit_query(truth.involved, out.received);
    coverage.push(audit.coverage_pct());
  }
  EXPECT_GT(coverage.mean(), 97.0);
}

TEST(MultiAttribute, RegionAndConjunctionCompose) {
  net::Topology topo = line4();
  DirqNetwork net(topo, 0, fixed_cfg());
  for (NodeId u = 1; u <= 3; ++u) {
    net.node(u).observe_slot(0, kT, 20.0, 0);
    net.node(u).observe_slot(0, kH, 60.0, 0);
  }
  query::MultiQuery q;
  q.id = 1;
  q.predicates = {{kT, 0.0, 100.0}, {kH, 0.0, 100.0}};
  q.region = net::BBox{0.0, -1.0, 2.5, 1.0};  // nodes 1, 2 only
  const QueryOutcome out = net.inject(0, q, 1);
  EXPECT_EQ(out.believed_sources, (std::vector<NodeId>{1, 2}));
}

}  // namespace
}  // namespace dirq::core
