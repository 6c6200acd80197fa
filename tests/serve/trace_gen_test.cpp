// Open-loop arrival stream: seeded determinism, Poisson rate, burst
// thinning, pool recurrence/subsetting, and TSV trace replay.
#include "serve/trace_gen.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "data/field_model.hpp"
#include "net/placement.hpp"
#include "query/workload.hpp"
#include "sim/rng.hpp"

namespace dirq::serve {
namespace {

struct World {
  net::Topology topo;
  net::SpanningTree tree;
  data::Environment env;
  query::WorkloadGenerator workload;

  explicit World(std::uint64_t seed)
      : topo(make_topo(seed)),
        tree(topo, 0),
        env(topo, 4, sim::Rng(seed).substream("env")),
        workload(topo, tree, env, query::WorkloadConfig{0.4, 0.02},
                 sim::Rng(seed).substream("workload")) {
    env.advance_to(0);
  }

  static net::Topology make_topo(std::uint64_t seed) {
    sim::Rng rng(seed);
    return net::random_connected(net::RandomPlacementConfig{}, rng);
  }
};

std::vector<Arrival> drain_all(TraceGen& gen, std::int64_t horizon) {
  std::vector<Arrival> out;
  for (std::int64_t e = 0; e <= horizon; ++e) gen.drain_until(e, out);
  return out;
}

TEST(TraceGenConfig, RejectsBadKnobs) {
  TraceGenConfig cfg;
  cfg.rate = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.pool_size = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.subset_fraction = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.shape = ArrivalShape::Burst;
  cfg.burst_length_epochs = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.multi_attr_fraction = 0.5;
  cfg.multi_attr_count = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(TraceGen, SameSeedSameStream) {
  World w(42);
  TraceGenConfig cfg;
  cfg.rate = 5.0;
  TraceGen a(cfg, w.workload, sim::Rng(9));
  World w2(42);
  TraceGen b(cfg, w2.workload, sim::Rng(9));
  const std::vector<Arrival> sa = drain_all(a, 200);
  const std::vector<Arrival> sb = drain_all(b, 200);
  ASSERT_EQ(sa.size(), sb.size());
  ASSERT_GT(sa.size(), 0u);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].epoch, sb[i].epoch);
    EXPECT_EQ(sa[i].multi, sb[i].multi);
    EXPECT_EQ(sa[i].range.type, sb[i].range.type);
    EXPECT_DOUBLE_EQ(sa[i].range.lo, sb[i].range.lo);
    EXPECT_DOUBLE_EQ(sa[i].range.hi, sb[i].range.hi);
  }
}

TEST(TraceGen, PoissonMeanRateIsRoughlyRight) {
  World w(42);
  TraceGenConfig cfg;
  cfg.rate = 10.0;
  TraceGen gen(cfg, w.workload, sim::Rng(1));
  const std::vector<Arrival> s = drain_all(gen, 999);
  // 10 arrivals/epoch over 1000 epochs; allow a wide stochastic band.
  EXPECT_GT(s.size(), 9000u);
  EXPECT_LT(s.size(), 11000u);
  // Arrival epochs are monotone non-decreasing and within the horizon.
  for (std::size_t i = 1; i < s.size(); ++i) {
    EXPECT_LE(s[i - 1].epoch, s[i].epoch);
  }
  EXPECT_LE(s.back().epoch, 999);
}

TEST(TraceGen, BurstShapeKeepsTheGapSilent) {
  World w(42);
  TraceGenConfig cfg;
  cfg.rate = 8.0;
  cfg.shape = ArrivalShape::Burst;
  cfg.burst_length_epochs = 20;
  cfg.burst_gap_epochs = 80;
  TraceGen gen(cfg, w.workload, sim::Rng(3));
  const std::vector<Arrival> s = drain_all(gen, 499);
  ASSERT_GT(s.size(), 0u);
  for (const Arrival& a : s) {
    EXPECT_LT(a.epoch % 100, 20) << "arrival in the silent gap";
  }
  // Thinned mean rate: 8 * 20/100 = 1.6/epoch over 500 epochs ~ 800.
  EXPECT_GT(s.size(), 500u);
  EXPECT_LT(s.size(), 1100u);
}

TEST(TraceGen, SubsetArrivalsNarrowToTheMiddleHalf) {
  World w(42);
  TraceGenConfig cfg;
  cfg.rate = 5.0;
  cfg.pool_size = 4;  // tiny pool: every base window recurs often
  cfg.subset_fraction = 0.5;
  TraceGen gen(cfg, w.workload, sim::Rng(5));
  const std::vector<Arrival> s = drain_all(gen, 400);
  ASSERT_GT(s.size(), 100u);
  // Some pair of arrivals must be (base window, its middle half): same
  // type, sub.lo == base.lo + (hi-lo)/4 and sub.hi == base.hi - (hi-lo)/4.
  bool found_pair = false;
  for (std::size_t i = 0; i < s.size() && !found_pair; ++i) {
    const double quarter = (s[i].range.hi - s[i].range.lo) / 4.0;
    for (std::size_t j = 0; j < s.size(); ++j) {
      if (s[j].range.type == s[i].range.type &&
          s[j].range.lo == s[i].range.lo + quarter &&
          s[j].range.hi == s[i].range.hi - quarter) {
        found_pair = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_pair);
}

TEST(TraceGen, MultiAttrSliceEmitsConjunctions) {
  World w(42);
  TraceGenConfig cfg;
  cfg.rate = 5.0;
  cfg.multi_attr_fraction = 0.5;
  cfg.multi_attr_count = 2;
  TraceGen gen(cfg, w.workload, sim::Rng(7));
  const std::vector<Arrival> s = drain_all(gen, 200);
  std::size_t multi = 0;
  for (const Arrival& a : s) {
    if (a.multi) {
      ++multi;
      EXPECT_EQ(a.multi_q.predicates.size(), 2u);
    }
  }
  EXPECT_GT(multi, 0u);
  EXPECT_LT(multi, s.size());
}

TEST(TraceGen, ReplayRoundTripsATsvTrace) {
  std::istringstream tsv(
      "epoch\ttype\tlo\thi\n"
      "0\t0\t20\t25\n"
      "0\t1\t40\t60\n"
      "7\t0\t22\t23\n"
      "7\t2\t1\t2\n"
      "19\t0\t20\t25\n");
  std::vector<Arrival> recorded = TraceGen::load_trace(tsv);
  ASSERT_EQ(recorded.size(), 5u);
  EXPECT_EQ(recorded[2].epoch, 7);
  EXPECT_EQ(recorded[2].range.type, 0);
  EXPECT_DOUBLE_EQ(recorded[2].range.lo, 22.0);
  EXPECT_DOUBLE_EQ(recorded[2].range.hi, 23.0);

  TraceGen gen(TraceGenConfig{}, std::move(recorded));
  std::vector<Arrival> out;
  gen.drain_until(0, out);
  EXPECT_EQ(out.size(), 2u);
  gen.drain_until(6, out);
  EXPECT_EQ(out.size(), 2u);  // nothing between 1 and 6
  gen.drain_until(19, out);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(gen.emitted(), 5);
}

TEST(TraceGen, LoadTraceRejectsMalformedInput) {
  std::istringstream empty("");
  EXPECT_THROW(TraceGen::load_trace(empty), std::runtime_error);
  std::istringstream junk("header\n1\t0\tnot-a-number\t5\n");
  EXPECT_THROW(TraceGen::load_trace(junk), std::runtime_error);
  std::istringstream backwards("header\n9\t0\t1\t2\n3\t0\t1\t2\n");
  EXPECT_THROW(TraceGen::load_trace(backwards), std::runtime_error);
  std::istringstream inverted("header\n1\t0\t5\t2\n");
  EXPECT_THROW(TraceGen::load_trace(inverted), std::runtime_error);
}

TEST(TraceGen, LoadTraceRejectsOutOfRangeSensorTypes) {
  // A type that does not fit SensorType must not wrap into another type
  // (70000 -> 4464, -1 -> 65535): the row is rejected with its line.
  for (const char* bad : {"70000", "-1", "65536"}) {
    std::istringstream tsv(std::string("epoch\ttype\tlo\thi\n"
                                       "0\t1\t20\t25\n"
                                       "3\t") +
                           bad + "\t20\t25\n");
    try {
      TraceGen::load_trace(tsv);
      ADD_FAILURE() << "type " << bad << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
  // The largest representable type still loads.
  std::istringstream edge("epoch\ttype\tlo\thi\n0\t65535\t1\t2\n");
  const std::vector<Arrival> rows = TraceGen::load_trace(edge);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].range.type, 65535);
}

}  // namespace
}  // namespace dirq::serve
