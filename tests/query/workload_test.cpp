// Query model, ground-truth involvement, workload targeting, predictor.
#include "query/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "net/placement.hpp"
#include "query/rate_predictor.hpp"
#include "sim/rng.hpp"

namespace dirq::query {
namespace {

struct World {
  net::Topology topo;
  net::SpanningTree tree;
  data::Environment env;

  explicit World(std::uint64_t seed)
      : topo(make_topo(seed)),
        tree(topo, 0),
        env(topo, 4, sim::Rng(seed).substream("env")) {}

  static net::Topology make_topo(std::uint64_t seed) {
    sim::Rng rng(seed);
    return net::random_connected(net::RandomPlacementConfig{}, rng);
  }
};

TEST(RangeQuery, MatchesAndOverlaps) {
  RangeQuery q{1, kSensorTemperature, 20.0, 25.0, 0};
  EXPECT_TRUE(q.matches(20.0));
  EXPECT_TRUE(q.matches(25.0));
  EXPECT_FALSE(q.matches(19.99));
  EXPECT_TRUE(q.overlaps(24.0, 30.0));
  EXPECT_TRUE(q.overlaps(10.0, 20.0));
  EXPECT_FALSE(q.overlaps(25.01, 30.0));
  EXPECT_TRUE(q.overlaps(10.0, 40.0));  // query inside stored range
}

TEST(RangeQuery, DescribeMentionsTypeAndBounds) {
  RangeQuery q{7, kSensorHumidity, 40.0, 60.0, 100};
  const std::string s = q.describe();
  EXPECT_NE(s.find("humidity"), std::string::npos);
  EXPECT_NE(s.find("query#7"), std::string::npos);
}

TEST(Involvement, SourcesMatchPredicate) {
  World w(42);
  w.env.advance_to(10);
  RangeQuery q{1, kSensorTemperature, 0.0, 100.0, 10};  // everything
  const Involvement inv = compute_involvement(q, w.topo, w.tree, w.env);
  // All capable non-root nodes are sources.
  EXPECT_EQ(inv.sources.size(),
            w.topo.nodes_with_sensor(kSensorTemperature).size());
  for (NodeId s : inv.sources) {
    EXPECT_TRUE(q.matches(w.env.reading(s, q.type)));
  }
}

TEST(Involvement, InvolvedIsUnionOfPaths) {
  World w(42);
  w.env.advance_to(10);
  RangeQuery q{1, kSensorTemperature, 0.0, 100.0, 10};
  const Involvement inv = compute_involvement(q, w.topo, w.tree, w.env);
  // Every source's full path (minus root) must be inside `involved`, and
  // nothing else is.
  std::vector<NodeId> paths;
  for (NodeId s : inv.sources) {
    for (NodeId hop = s; hop != w.tree.root(); hop = w.tree.parent(hop)) {
      EXPECT_TRUE(std::binary_search(inv.involved.begin(), inv.involved.end(),
                                     hop));
      paths.push_back(hop);
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  EXPECT_EQ(inv.involved, paths);
  EXPECT_GE(inv.involved.size(), inv.sources.size());
}

TEST(Involvement, EmptyWindowInvolvesNobody) {
  World w(42);
  w.env.advance_to(10);
  RangeQuery q{1, kSensorTemperature, 1000.0, 1001.0, 10};
  const Involvement inv = compute_involvement(q, w.topo, w.tree, w.env);
  EXPECT_TRUE(inv.sources.empty());
  EXPECT_TRUE(inv.involved.empty());
}

TEST(Involvement, RootIsNeverInvolved) {
  World w(42);
  w.env.advance_to(10);
  RangeQuery q{1, kSensorTemperature, -100.0, 100.0, 10};
  const Involvement inv = compute_involvement(q, w.topo, w.tree, w.env);
  EXPECT_FALSE(std::binary_search(inv.involved.begin(), inv.involved.end(),
                                  w.tree.root()));
}

class WorkloadTargetTest : public ::testing::TestWithParam<double> {};

TEST_P(WorkloadTargetTest, HitsTargetInvolvementApproximately) {
  const double target = GetParam();
  World w(42);
  WorkloadGenerator gen(w.topo, w.tree, w.env, WorkloadConfig{target, 0.02},
                        sim::Rng(1).substream("wl"));
  sim::RunningStat achieved;
  for (std::int64_t e = 20; e <= 2000; e += 20) {
    w.env.advance_to(e);
    RangeQuery q = gen.next(e);
    const Involvement inv = compute_involvement(q, w.topo, w.tree, w.env);
    achieved.push(static_cast<double>(inv.involved.size()) /
                  static_cast<double>(w.tree.size() - 1));
  }
  // Mean achieved involvement within 6 percentage points of the target.
  EXPECT_NEAR(achieved.mean(), target, 0.06) << "target " << target;
}

INSTANTIATE_TEST_SUITE_P(PaperFractions, WorkloadTargetTest,
                         ::testing::Values(0.2, 0.4, 0.6));

TEST(Workload, QueryIdsIncrease) {
  World w(42);
  WorkloadGenerator gen(w.topo, w.tree, w.env, WorkloadConfig{0.4, 0.02},
                        sim::Rng(1));
  w.env.advance_to(20);
  const RangeQuery q1 = gen.next(20);
  const RangeQuery q2 = gen.next(20);
  EXPECT_LT(q1.id, q2.id);
}

TEST(Workload, GeneratedWindowIsNonEmpty) {
  World w(42);
  WorkloadGenerator gen(w.topo, w.tree, w.env, WorkloadConfig{0.4, 0.02},
                        sim::Rng(1));
  w.env.advance_to(20);
  for (int i = 0; i < 50; ++i) {
    const RangeQuery q = gen.next(20);
    EXPECT_LT(q.lo, q.hi);
  }
}

TEST(Workload, TypeComesFromNetwork) {
  World w(42);
  WorkloadGenerator gen(w.topo, w.tree, w.env, WorkloadConfig{0.4, 0.02},
                        sim::Rng(1));
  w.env.advance_to(20);
  for (int i = 0; i < 50; ++i) {
    EXPECT_LT(gen.next(20).type, 4);
  }
}

TEST(Workload, DeterministicPerSeed) {
  World w1(42), w2(42);
  WorkloadGenerator g1(w1.topo, w1.tree, w1.env, WorkloadConfig{0.4, 0.02},
                       sim::Rng(5));
  WorkloadGenerator g2(w2.topo, w2.tree, w2.env, WorkloadConfig{0.4, 0.02},
                       sim::Rng(5));
  w1.env.advance_to(40);
  w2.env.advance_to(40);
  for (int i = 0; i < 10; ++i) {
    const RangeQuery a = g1.next(40);
    const RangeQuery b = g2.next(40);
    EXPECT_EQ(a.type, b.type);
    EXPECT_DOUBLE_EQ(a.lo, b.lo);
    EXPECT_DOUBLE_EQ(a.hi, b.hi);
  }
}

TEST(Predictor, ExtrapolatesPartialFirstHour) {
  QueryRatePredictor p(0.4, 3600);
  for (std::int64_t e = 0; e < 360; e += 20) p.record_query(e);
  // 18 queries in ~1/10 hour -> ~180/hour (up to edge-of-window bias).
  EXPECT_NEAR(p.predict_next_hour(), 180.0, 15.0);
}

TEST(Predictor, UsesCompletedHours) {
  QueryRatePredictor p(0.5, 100);
  for (std::int64_t e = 0; e < 100; e += 10) p.record_query(e);  // 10 in hour 0
  p.record_query(150);  // rolls hour 0
  EXPECT_EQ(p.completed_hours(), 1u);
  EXPECT_EQ(p.hour_count(0), 10);
  EXPECT_DOUBLE_EQ(p.predict_next_hour(), 10.0);
}

TEST(Predictor, EwmaTracksLoadChanges) {
  QueryRatePredictor p(0.5, 100);
  // Hour 0: 10 queries; hour 1: 30 queries; roll into hour 2.
  for (std::int64_t e = 0; e < 100; e += 10) p.record_query(e);
  for (std::int64_t e = 100; e < 200; e += 10) {
    for (int k = 0; k < 3; ++k) p.record_query(e);
  }
  p.record_query(250);
  // EWMA(0.5): 0.5*30 + 0.5*10 = 20.
  EXPECT_DOUBLE_EQ(p.predict_next_hour(), 20.0);
}

TEST(Predictor, SkippedHoursCountAsZero) {
  QueryRatePredictor p(1.0, 100);  // alpha 1: latest hour wins
  p.record_query(10);
  p.record_query(520);  // hours 1..4 empty; hour 0 had 1
  EXPECT_EQ(p.completed_hours(), 5u);
  EXPECT_EQ(p.hour_count(0), 1);
  EXPECT_EQ(p.hour_count(3), 0);
  EXPECT_DOUBLE_EQ(p.predict_next_hour(), 0.0);  // last completed hour empty
}

TEST(Predictor, RejectsTimeTravel) {
  QueryRatePredictor p;
  p.record_query(100);
  EXPECT_THROW(p.record_query(50), std::invalid_argument);
}

TEST(Predictor, NoDataPredictsZero) {
  QueryRatePredictor p;
  EXPECT_DOUBLE_EQ(p.predict_next_hour(), 0.0);
}

}  // namespace
}  // namespace dirq::query
