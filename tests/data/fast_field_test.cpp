// FastField / FastEnvironment: the counter-based environment backend must
// reproduce the §7 dataset properties (spatial coherence, temporal
// correlation approximating the pinned AR(1) targets) while delivering the
// guarantees the pinned backend cannot: O(1) epoch jumps and bit-identical
// out-of-order reads.
#include "data/fast_field.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "data/field_model.hpp"
#include "net/placement.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace dirq::data {
namespace {

net::Topology paper_topology(std::uint64_t seed = 42) {
  sim::Rng rng(seed);
  return net::random_connected(net::RandomPlacementConfig{}, rng);
}

TEST(FastField, DeterministicForSameSeed) {
  net::Topology topo = paper_topology();
  FastField a(kSensorTemperature, default_params(kSensorTemperature), topo,
              sim::Rng(9));
  FastField b(kSensorTemperature, default_params(kSensorTemperature), topo,
              sim::Rng(9));
  a.advance_to(100);
  b.advance_to(100);
  for (NodeId u = 0; u < topo.size(); ++u) {
    EXPECT_EQ(a.reading(u), b.reading(u));
  }
}

TEST(FastField, DifferentSeedsDiffer) {
  net::Topology topo = paper_topology();
  FastField a(kSensorTemperature, default_params(kSensorTemperature), topo,
              sim::Rng(9));
  FastField b(kSensorTemperature, default_params(kSensorTemperature), topo,
              sim::Rng(10));
  a.advance_to(100);
  b.advance_to(100);
  bool differ = false;
  for (NodeId u = 0; u < topo.size(); ++u) {
    if (a.reading(u) != b.reading(u)) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(FastField, EpochsAreMonotonic) {
  net::Topology topo = paper_topology();
  FastField f(kSensorTemperature, default_params(kSensorTemperature), topo,
              sim::Rng(9));
  f.advance_to(50);
  EXPECT_THROW(f.advance_to(49), std::invalid_argument);
  f.advance_to(50);  // same epoch is a no-op
  EXPECT_EQ(f.epoch(), 50);
}

TEST(FastField, JumpEqualsStep) {
  // O(1) random access: jumping straight to an epoch must produce exactly
  // the values a step-by-step advance produces (the property the pinned
  // backend's sequential AR(1) state structurally cannot offer).
  net::Topology topo = paper_topology();
  FastField stepped(kSensorTemperature, default_params(kSensorTemperature),
                    topo, sim::Rng(5));
  FastField jumped(kSensorTemperature, default_params(kSensorTemperature),
                   topo, sim::Rng(5));
  for (std::int64_t e = 1; e <= 777; ++e) {
    stepped.advance_to(e);
    // Touch readings along the way so caches are warm and mid-stream.
    if (e % 13 == 0) (void)stepped.reading(e % topo.size());
  }
  jumped.advance_to(777);
  for (NodeId u = 0; u < topo.size(); ++u) {
    EXPECT_EQ(stepped.reading(u), jumped.reading(u)) << "node " << u;
  }
  EXPECT_EQ(stepped.field_at(30.0, 40.0), jumped.field_at(30.0, 40.0));
}

TEST(FastField, EveryRefreshPathMatchesAFreshJump) {
  // Per sensor type, one field walks a script that reaches every anchor
  // refresh path: single steps (one new innovation per node-noise block,
  // the terrain hi -> lo reuse), jumps of 1-3 node-noise and terrain
  // blocks (full refills), nodes skipped for several blocks as the
  // sampling gate does, a node adopted late, and shuffled, chunked
  // batches. Every reading it takes must equal, bit for bit, a fresh
  // field's reading jumped straight to that epoch.
  const std::size_t original = paper_topology().size();
  std::vector<std::int64_t> script;
  for (std::int64_t e = 1; e <= 70; ++e) script.push_back(e);
  for (std::int64_t jump : {4, 8, 12, 5, 9, 13, 32, 64, 96, 33, 70, 1, 3}) {
    script.push_back(script.back() + jump);
  }
  for (int i = 0; i < 40; ++i) script.push_back(script.back() + 1);
  const std::size_t late_at = 90;  // script index the late node joins at
  ASSERT_LT(late_at, script.size());

  for (SensorType type = 0; type < 4; ++type) {
    net::Topology t = paper_topology();
    FastField field(type, default_params(type), t, sim::Rng(5));
    sim::Rng order_rng(100 + type);
    for (std::size_t i = 0; i < script.size(); ++i) {
      const std::int64_t epoch = script[i];
      if (i == late_at) {
        // Inside the deployment's bounding box, so a field built now
        // shares the original geometry.
        net::Node late;
        late.x = (t.node(0).x + t.node(1).x) / 2.0;
        late.y = (t.node(0).y + t.node(1).y) / 2.0;
        t.add_node(late);
      }
      field.advance_to(epoch);
      // Nodes 1 mod 4 are gated: read only every ninth visit, so they
      // sit out several blocks; the rest are read every visit.
      std::vector<NodeId> batch;
      std::vector<NodeId> gated;
      for (NodeId u = 0; u < t.size(); ++u) {
        if (u < original && u % 4 == 1) {
          if ((i + u) % 9 == 0) gated.push_back(u);
        } else {
          batch.push_back(u);
        }
      }
      order_rng.shuffle(std::span<NodeId>(batch));
      std::vector<double> got(batch.size());
      for (std::size_t b = 0; b < batch.size();) {
        const auto chunk =
            static_cast<std::size_t>(order_rng.uniform_int(1, 17));
        const std::size_t n = std::min(batch.size() - b, chunk);
        field.readings(std::span<const NodeId>(batch).subspan(b, n),
                       std::span<double>(got).subspan(b, n));
        b += n;
      }
      for (NodeId u : gated) {
        batch.push_back(u);
        got.push_back(field.reading(u));
      }
      FastField fresh(type, default_params(type), t, sim::Rng(5));
      fresh.advance_to(epoch);
      for (std::size_t k = 0; k < batch.size(); ++k) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                  std::bit_cast<std::uint64_t>(fresh.reading(batch[k])))
            << "type " << type << " epoch " << epoch << " node " << batch[k];
      }
    }
  }
}

TEST(FastField, OutOfOrderNodeQueriesAreDeterministic) {
  net::Topology topo = paper_topology();
  FastField a(kSensorTemperature, default_params(kSensorTemperature), topo,
              sim::Rng(3));
  FastField b(kSensorTemperature, default_params(kSensorTemperature), topo,
              sim::Rng(3));
  a.advance_to(500);
  b.advance_to(500);
  // a reads ascending; b reads a shuffled order with repeats.
  std::vector<double> forward(topo.size());
  for (NodeId u = 0; u < topo.size(); ++u) forward[u] = a.reading(u);
  std::vector<NodeId> order(topo.size());
  std::iota(order.begin(), order.end(), NodeId{0});
  sim::Rng shuffle_rng(77);
  shuffle_rng.shuffle(std::span<NodeId>(order));
  for (NodeId u : order) {
    EXPECT_EQ(b.reading(u), forward[u]) << "node " << u;
    EXPECT_EQ(b.reading(u), forward[u]) << "repeat read, node " << u;
  }
}

TEST(FastField, BatchMatchesPerNodeReads) {
  net::Topology topo = paper_topology();
  FastField f(kSensorTemperature, default_params(kSensorTemperature), topo,
              sim::Rng(3));
  f.advance_to(250);
  std::vector<NodeId> nodes(topo.size());
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  std::reverse(nodes.begin(), nodes.end());  // order must not matter
  std::vector<double> batch(nodes.size());
  f.readings(nodes, batch);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(batch[i], f.reading(nodes[i]));
  }
}

TEST(FastField, SpatialCoherenceViaFieldAt) {
  // §7: nearby positions must read closer than distant ones — the
  // gradient + front structure is shared arithmetic with the pinned
  // backend and the regional noise is cell-coherent by construction.
  net::Topology topo = paper_topology();
  FastField f(kSensorTemperature, default_params(kSensorTemperature), topo,
              sim::Rng(5));
  sim::Rng pos_rng(17);
  sim::RunningStat near_diff, far_diff;
  for (std::int64_t e = 100; e <= 2000; e += 100) {
    f.advance_to(e);
    for (int i = 0; i < 200; ++i) {
      const double x = pos_rng.uniform(0.0, 100.0);
      const double y = pos_rng.uniform(0.0, 100.0);
      // A nearby probe (within 5 units) and a distant one (over 60 away).
      const double nx = std::clamp(x + pos_rng.uniform(-5.0, 5.0), 0.0, 100.0);
      const double ny = std::clamp(y + pos_rng.uniform(-5.0, 5.0), 0.0, 100.0);
      const double fx = std::fmod(x + 60.0 + pos_rng.uniform(0.0, 30.0), 100.0);
      const double fy = std::fmod(y + 60.0 + pos_rng.uniform(0.0, 30.0), 100.0);
      const double v = f.field_at(x, y);
      near_diff.push(std::abs(v - f.field_at(nx, ny)));
      far_diff.push(std::abs(v - f.field_at(fx, fy)));
    }
  }
  EXPECT_LT(near_diff.mean(), far_diff.mean() * 0.8);
}

/// Mean lag-k autocorrelation of per-node noise series (reading minus
/// field_at at the node's position isolates exactly the node process).
double node_noise_autocorr(FastField& f, const net::Topology& topo,
                           std::int64_t lag, std::int64_t epochs) {
  const std::size_t n = std::min<std::size_t>(topo.size(), 20);
  std::vector<std::vector<double>> series(n);
  for (std::int64_t e = 1; e <= epochs; ++e) {
    f.advance_to(e);
    for (std::size_t u = 0; u < n; ++u) {
      const net::Node& node = topo.node(static_cast<NodeId>(u));
      series[u].push_back(f.reading(static_cast<NodeId>(u)) -
                          f.field_at(node.x, node.y));
    }
  }
  double corr_sum = 0.0;
  std::size_t counted = 0;
  for (const std::vector<double>& s : series) {
    const auto len = static_cast<std::int64_t>(s.size());
    double mean = 0.0;
    for (double v : s) mean += v;
    mean /= static_cast<double>(len);
    double var = 0.0, cov = 0.0;
    for (std::int64_t i = 0; i < len; ++i) {
      var += (s[i] - mean) * (s[i] - mean);
      if (i + lag < len) cov += (s[i] - mean) * (s[i + lag] - mean);
    }
    if (var > 0.0) {
      corr_sum += (cov / static_cast<double>(len - lag)) /
                  (var / static_cast<double>(len));
      ++counted;
    }
  }
  return counted > 0 ? corr_sum / static_cast<double>(counted) : 0.0;
}

TEST(FastField, NodeNoiseLagAutocorrelationTracksAr1Target) {
  // The counter noise must approximate the pinned AR(1)'s rho^k
  // autocorrelation. Tolerance covers both the estimator's sampling noise
  // over 4000 epochs and the documented model error (piecewise-linear
  // interpolation between block anchors vs exact exponential decay).
  net::Topology topo = paper_topology();
  const FieldParams p = default_params(kSensorTemperature);
  FastField f(kSensorTemperature, p, topo, sim::Rng(5));
  constexpr std::int64_t kEpochs = 4000;
  double prev = 1.1;
  for (const std::int64_t lag : {1, 2, 4, 8, 16}) {
    const double target = std::pow(p.node_rho, static_cast<double>(lag));
    FastField fresh(kSensorTemperature, p, topo, sim::Rng(5));
    const double measured = node_noise_autocorr(fresh, topo, lag, kEpochs);
    EXPECT_NEAR(measured, target, 0.15) << "lag " << lag;
    EXPECT_LT(measured, prev + 0.02) << "decay must be monotone, lag " << lag;
    prev = measured;
  }
}

TEST(FastField, RegionalNoiseLagAutocorrelationTracksAr1Target) {
  // field_at - deterministic_at isolates the regional (cell) process.
  net::Topology topo = paper_topology();
  const FieldParams p = default_params(kSensorTemperature);
  FastField f(kSensorTemperature, p, topo, sim::Rng(5));
  constexpr std::int64_t kEpochs = 6000;
  std::vector<double> series;
  series.reserve(kEpochs);
  for (std::int64_t e = 1; e <= kEpochs; ++e) {
    f.advance_to(e);
    series.push_back(f.field_at(50.0, 50.0) - f.deterministic_at(50.0, 50.0));
  }
  double mean = 0.0;
  for (double v : series) mean += v;
  mean /= static_cast<double>(series.size());
  double var = 0.0;
  for (double v : series) var += (v - mean) * (v - mean);
  var /= static_cast<double>(series.size());
  ASSERT_GT(var, 0.0);
  for (const std::int64_t lag : {1, 8, 16, 32}) {
    double cov = 0.0;
    for (std::size_t i = 0; i + lag < series.size(); ++i) {
      cov += (series[i] - mean) * (series[i + lag] - mean);
    }
    cov /= static_cast<double>(series.size() - lag);
    const double target = std::pow(p.regional_rho, static_cast<double>(lag));
    EXPECT_NEAR(cov / var, target, 0.15) << "lag " << lag;
  }
}

TEST(FastField, NodeNoiseVarianceMatchesStationaryAr1) {
  net::Topology topo = paper_topology();
  const FieldParams p = default_params(kSensorTemperature);
  FastField f(kSensorTemperature, p, topo, sim::Rng(5));
  sim::RunningStat s;
  for (std::int64_t e = 1; e <= 4000; ++e) {
    f.advance_to(e);
    for (NodeId u = 0; u < std::min<NodeId>(topo.size(), 10); ++u) {
      const net::Node& node = topo.node(u);
      s.push(f.reading(u) - f.field_at(node.x, node.y));
    }
  }
  const double target_sd = p.node_sigma / std::sqrt(1.0 - p.node_rho * p.node_rho);
  EXPECT_NEAR(s.mean(), 0.0, target_sd * 0.2);
  EXPECT_GT(s.stddev(), target_sd * 0.7);
  EXPECT_LT(s.stddev(), target_sd * 1.3);
}

TEST(FastField, ReadingsStayInPlausibleRange) {
  net::Topology topo = paper_topology();
  FastField f(kSensorTemperature, default_params(kSensorTemperature), topo,
              sim::Rng(7));
  for (std::int64_t e = 0; e <= 5000; e += 50) {
    f.advance_to(e);
    for (NodeId u = 0; u < topo.size(); ++u) {
      EXPECT_GT(f.reading(u), -20.0);
      EXPECT_LT(f.reading(u), 60.0);
    }
  }
}

TEST(FastField, SharesFrontGeometryWithPinnedField) {
  // Both backends consume the same "bumps" substream, so at epoch 0 (where
  // the pinned fronts have not stepped yet) the deterministic structure is
  // identical: with zeroed noise the difference of the two fields at any
  // position is exactly the pinned regional noise (zero at epoch 0).
  net::Topology topo = paper_topology();
  const FieldParams p = default_params(kSensorTemperature);
  Field pinned(kSensorTemperature, p, topo, sim::Rng(5));
  FastField fast(kSensorTemperature, p, topo, sim::Rng(5));
  EXPECT_NEAR(pinned.field_at(30.0, 40.0), fast.deterministic_at(30.0, 40.0),
              1e-12);
  EXPECT_NEAR(pinned.field_at(80.0, 10.0), fast.deterministic_at(80.0, 10.0),
              1e-12);
}

TEST(FastEnvironment, LockstepAdvance) {
  net::Topology topo = paper_topology();
  FastEnvironment env(topo, 4, sim::Rng(11));
  env.advance_to(123);
  EXPECT_EQ(env.epoch(), 123);
  for (SensorType t = 0; t < 4; ++t) {
    EXPECT_EQ(env.field(t).epoch(), 123);
  }
}

TEST(FastEnvironment, TypesEvolveIndependently) {
  net::Topology topo = paper_topology();
  FastEnvironment env(topo, 4, sim::Rng(11));
  env.advance_to(200);
  const double a = env.reading(1, kSensorTemperature);
  const double b = env.reading(1, kSensorHumidity);
  EXPECT_NE(a, b);
}

TEST(FastEnvironment, RejectsUnknownNodeLikePinned) {
  // Both backends are interchangeable behind ReadingSource: an id the
  // topology has never seen throws on either, never UB.
  net::Topology topo = paper_topology();
  FastEnvironment fast(topo, 2, sim::Rng(11));
  Environment pinned(topo, 2, sim::Rng(11));
  const NodeId bogus = static_cast<NodeId>(topo.size() + 100);
  EXPECT_THROW((void)fast.reading(bogus, 0), std::out_of_range);
  EXPECT_THROW((void)pinned.reading(bogus, 0), std::out_of_range);
}

TEST(FastEnvironment, RejectsUnknownType) {
  net::Topology topo = paper_topology();
  FastEnvironment env(topo, 2, sim::Rng(11));
  EXPECT_THROW((void)env.reading(0, 5), std::out_of_range);
}

TEST(FastEnvironment, AdoptsLateDeployedNodes) {
  net::Topology topo = paper_topology();
  FastEnvironment env(topo, 2, sim::Rng(11));
  env.advance_to(100);
  net::Node fresh;
  fresh.x = 12.0;
  fresh.y = 34.0;
  fresh.sensors = {kSensorTemperature};
  const NodeId id = topo.add_node(fresh);
  const double v = env.reading(id, kSensorTemperature);
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_EQ(env.reading(id, kSensorTemperature), v);  // stable re-read
}

TEST(MakeEnvironment, PinnedFactoryIsBitIdenticalToDirectConstruction) {
  // The seam must not perturb the pinned streams: the factory's Pinned
  // product and a hand-built Environment from the same substream agree
  // bit-for-bit (this is what keeps every golden untouched).
  net::Topology topo = paper_topology();
  sim::Rng rng_a(42);
  sim::Rng rng_b(42);
  const std::unique_ptr<ReadingSource> via_factory = make_environment(
      EnvironmentBackend::Pinned, topo, 4, rng_a.substream("environment"));
  Environment direct(topo, 4, rng_b.substream("environment"));
  via_factory->advance_to(321);
  direct.advance_to(321);
  for (NodeId u = 0; u < topo.size(); ++u) {
    for (SensorType t = 0; t < 4; ++t) {
      EXPECT_EQ(via_factory->reading(u, t), direct.reading(u, t));
    }
  }
}

TEST(MakeEnvironment, BackendsProduceDifferentButDeterministicData) {
  net::Topology topo = paper_topology();
  sim::Rng rng(42);
  const std::unique_ptr<ReadingSource> pinned = make_environment(
      EnvironmentBackend::Pinned, topo, 4, rng.substream("environment"));
  const std::unique_ptr<ReadingSource> fast = make_environment(
      EnvironmentBackend::Fast, topo, 4, rng.substream("environment"));
  pinned->advance_to(200);
  fast->advance_to(200);
  bool differ = false;
  for (NodeId u = 0; u < topo.size(); ++u) {
    if (pinned->reading(u, 0) != fast->reading(u, 0)) differ = true;
  }
  EXPECT_TRUE(differ);  // different noise processes, same structure
  EXPECT_STREQ(backend_name(EnvironmentBackend::Pinned), "pinned");
  EXPECT_STREQ(backend_name(EnvironmentBackend::Fast), "fast");
}

}  // namespace
}  // namespace dirq::data
