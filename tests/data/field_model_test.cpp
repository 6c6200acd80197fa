// Synthetic field: determinism, monotonic epochs, spatial and temporal
// correlation (the §7 dataset properties), per-type parameterisation.
#include "data/field_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "net/placement.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace dirq::data {
namespace {

net::Topology paper_topology(std::uint64_t seed = 42) {
  sim::Rng rng(seed);
  return net::random_connected(net::RandomPlacementConfig{}, rng);
}

TEST(Field, DeterministicForSameSeed) {
  net::Topology topo = paper_topology();
  Field a(kSensorTemperature, default_params(kSensorTemperature), topo,
          sim::Rng(9));
  Field b(kSensorTemperature, default_params(kSensorTemperature), topo,
          sim::Rng(9));
  a.advance_to(100);
  b.advance_to(100);
  for (NodeId u = 0; u < topo.size(); ++u) {
    EXPECT_DOUBLE_EQ(a.reading(u), b.reading(u));
  }
}

TEST(Field, DifferentSeedsDiffer) {
  net::Topology topo = paper_topology();
  Field a(kSensorTemperature, default_params(kSensorTemperature), topo,
          sim::Rng(9));
  Field b(kSensorTemperature, default_params(kSensorTemperature), topo,
          sim::Rng(10));
  a.advance_to(100);
  b.advance_to(100);
  bool differ = false;
  for (NodeId u = 0; u < topo.size(); ++u) {
    if (a.reading(u) != b.reading(u)) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(Field, EpochsAreMonotonic) {
  net::Topology topo = paper_topology();
  Field f(kSensorTemperature, default_params(kSensorTemperature), topo,
          sim::Rng(9));
  f.advance_to(50);
  EXPECT_THROW(f.advance_to(49), std::invalid_argument);
  f.advance_to(50);  // same epoch is a no-op
  EXPECT_EQ(f.epoch(), 50);
}

TEST(Field, SpatialCorrelation) {
  // §7: "sensor values of nodes located close to one another are spatially
  // related". Mean |reading difference| of close pairs must be well below
  // that of far pairs.
  net::Topology topo = paper_topology();
  Field f(kSensorTemperature, default_params(kSensorTemperature), topo,
          sim::Rng(5));
  sim::RunningStat near_diff, far_diff;
  for (std::int64_t e = 100; e <= 2000; e += 100) {
    f.advance_to(e);
    for (NodeId a = 1; a < topo.size(); ++a) {
      for (NodeId b = a + 1; b < topo.size(); ++b) {
        const double d = topo.distance(a, b);
        const double diff = std::abs(f.reading(a) - f.reading(b));
        if (d < 15.0) {
          near_diff.push(diff);
        } else if (d > 60.0) {
          far_diff.push(diff);
        }
      }
    }
  }
  ASSERT_GT(near_diff.count(), 100u);
  ASSERT_GT(far_diff.count(), 100u);
  EXPECT_LT(near_diff.mean(), far_diff.mean() * 0.8);
}

TEST(Field, TemporalCorrelation) {
  // Consecutive-epoch changes must be small relative to the field's
  // overall dynamic range (AR(1) + slow drift, not white noise).
  net::Topology topo = paper_topology();
  Field f(kSensorTemperature, default_params(kSensorTemperature), topo,
          sim::Rng(5));
  sim::RunningStat step, range;
  double prev = 0.0;
  for (std::int64_t e = 1; e <= 4000; ++e) {
    f.advance_to(e);
    const double v = f.reading(1);
    if (e > 1) step.push(std::abs(v - prev));
    range.push(v);
    prev = v;
  }
  EXPECT_LT(step.mean(), (range.max() - range.min()) * 0.05);
}

TEST(Field, DiurnalCycleMovesTheMean) {
  net::Topology topo = paper_topology();
  FieldParams p = default_params(kSensorTemperature);
  Field f(kSensorTemperature, p, topo, sim::Rng(5));
  // Peak of sin at t = period/4; trough at 3*period/4.
  f.advance_to(static_cast<std::int64_t>(p.diurnal_period / 4));
  const double warm = f.field_at(50, 50);
  f.advance_to(static_cast<std::int64_t>(3 * p.diurnal_period / 4));
  const double cool = f.field_at(50, 50);
  EXPECT_GT(warm - cool, p.diurnal_amplitude);  // 2*amp minus noise slack
}

TEST(Field, ReadingsStayInPlausibleRange) {
  net::Topology topo = paper_topology();
  Field f(kSensorTemperature, default_params(kSensorTemperature), topo,
          sim::Rng(7));
  for (std::int64_t e = 0; e <= 5000; e += 50) {
    f.advance_to(e);
    for (NodeId u = 0; u < topo.size(); ++u) {
      EXPECT_GT(f.reading(u), -20.0);
      EXPECT_LT(f.reading(u), 60.0);
    }
  }
}

TEST(Field, PerNodeNoiseDecorralatesCoLocatedNodes) {
  // Two nodes at the same position differ only by node noise: non-zero but
  // small.
  std::vector<net::Node> nodes(2);
  nodes[0].x = nodes[1].x = 10.0;
  nodes[0].y = nodes[1].y = 10.0;
  net::Topology topo(std::move(nodes), 5.0);
  Field f(kSensorTemperature, default_params(kSensorTemperature), topo,
          sim::Rng(3));
  f.advance_to(500);
  const double diff = std::abs(f.reading(0) - f.reading(1));
  EXPECT_GT(diff, 0.0);
  EXPECT_LT(diff, 3.0);
}

// Test-local reference for the pinned field's noise planes: the
// per-element draw loop Field::step_once batches (one Rng::normal per
// cell, then one per node), with the field's lazy adoption of nodes added
// to the topology after construction.
class ReferenceNoise {
 public:
  ReferenceNoise(const FieldParams& p, const net::Topology& topo, sim::Rng rng)
      : p_(p), topo_(&topo), rng_(rng) {
    geo_.init(topo, p.regional_cell);
    regional_.assign(geo_.cell_count(), 0.0);
    node_noise_.assign(geo_.node_count(), 0.0);
  }

  void step() {
    for (double& r : regional_) {
      r = p_.regional_rho * r + rng_.normal(0.0, p_.regional_sigma);
    }
    for (double& n : node_noise_) {
      n = p_.node_rho * n + rng_.normal(0.0, p_.node_sigma);
    }
  }

  double reading(NodeId node) {
    if (node >= geo_.node_count()) {
      geo_.adopt_new_nodes(*topo_);
      node_noise_.resize(geo_.node_count(), 0.0);
    }
    return regional_[geo_.node_cell[node]] + node_noise_[node];
  }

  [[nodiscard]] std::size_t cells() const { return regional_.size(); }

 private:
  FieldParams p_;
  const net::Topology* topo_;
  sim::Rng rng_;
  FieldGeometry geo_;
  std::vector<double> regional_;
  std::vector<double> node_noise_;
};

TEST(Field, PinnedAdoptionMatchesPerDrawReference) {
  // The deterministic structure (level, diurnal cycle, gradient, fronts)
  // is zeroed, so a reading is exactly regional + per-node noise: the two
  // planes the batched draw fills.
  FieldParams p = default_params(kSensorLight);
  p.base = 0.0;
  p.diurnal_amplitude = 0.0;
  p.gradient_x = 0.0;
  p.gradient_y = 0.0;
  p.bump_count = 0;
  p.regional_cell = 34.0;
  net::Topology topo = paper_topology();
  Field field(kSensorLight, p, topo, sim::Rng(17));
  ReferenceNoise ref(p, topo, sim::Rng(17));
  // Odd cell and node counts: every step draws an odd number of normals,
  // so batch boundaries walk across the 312-word twists (one every two
  // or three steps here).
  ASSERT_EQ(ref.cells() % 2, 1u);
  ASSERT_EQ(topo.size() % 2, 0u);  // odd once the first node is added

  std::size_t compared = 0;
  std::string first_mismatch;
  auto compare = [&](std::int64_t epoch, std::size_t nodes) {
    for (NodeId u = 0; u < nodes; ++u) {
      const double got = field.reading(u);
      const double want = ref.reading(u);
      ++compared;
      if (first_mismatch.empty() &&
          std::bit_cast<std::uint64_t>(got) != std::bit_cast<std::uint64_t>(want)) {
        first_mismatch = "epoch " + std::to_string(epoch) + " node " +
                         std::to_string(u);
      }
    }
  };
  std::int64_t epoch = 0;
  auto run = [&](std::int64_t steps, std::size_t nodes) {
    for (std::int64_t i = 0; i < steps; ++i) {
      field.advance_to(++epoch);
      ref.step();
      compare(epoch, nodes);
    }
  };

  run(40, topo.size());
  net::Node first;
  first.x = 61.0;
  first.y = 17.0;
  first.sensors = {kSensorLight};
  topo.add_node(first);
  compare(epoch, topo.size());  // the first read adopts it in both
  run(60, topo.size());

  // A node nobody reads for a while is adopted only at its first read,
  // and its noise starts there.
  const std::size_t before = topo.size();
  net::Node second;
  second.x = 23.0;
  second.y = 88.0;
  second.sensors = {kSensorLight};
  topo.add_node(second);
  run(25, before);
  run(75, topo.size());

  EXPECT_EQ(compared, 40u * 50 + 51 + 60 * 51 + 25 * 51 + 75 * 52);
  EXPECT_TRUE(first_mismatch.empty()) << "first mismatch at " << first_mismatch;
}

TEST(DefaultParams, TypesAreDistinct) {
  const FieldParams temp = default_params(kSensorTemperature);
  const FieldParams hum = default_params(kSensorHumidity);
  const FieldParams light = default_params(kSensorLight);
  const FieldParams soil = default_params(kSensorSoilMoisture);
  EXPECT_NE(temp.base, hum.base);
  EXPECT_NE(hum.base, light.base);
  EXPECT_GT(light.diurnal_amplitude, temp.diurnal_amplitude);
  EXPECT_LT(soil.bump_drift, temp.bump_drift);  // soil fronts crawl
}

TEST(DefaultParams, UnknownTypeGetsFallback) {
  const FieldParams p = default_params(77);
  EXPECT_GT(p.base, 0.0);
}

TEST(Environment, LockstepAdvance) {
  net::Topology topo = paper_topology();
  Environment env(topo, 4, sim::Rng(11));
  env.advance_to(123);
  EXPECT_EQ(env.epoch(), 123);
  for (SensorType t = 0; t < 4; ++t) {
    EXPECT_EQ(env.field(t).epoch(), 123);
  }
}

TEST(Environment, TypesEvolveIndependently) {
  net::Topology topo = paper_topology();
  Environment env(topo, 4, sim::Rng(11));
  env.advance_to(200);
  // Same node, different types: values come from different fields.
  const double a = env.reading(1, kSensorTemperature);
  const double b = env.reading(1, kSensorHumidity);
  EXPECT_NE(a, b);
}

TEST(Environment, RejectsUnknownType) {
  net::Topology topo = paper_topology();
  Environment env(topo, 2, sim::Rng(11));
  EXPECT_THROW((void)env.reading(0, 5), std::out_of_range);
}

}  // namespace
}  // namespace dirq::data
