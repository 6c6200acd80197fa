// Sampling suppression (paper §8 future work): Holt predictor, interval
// doubling/reset, energy accounting, and the end-to-end accuracy trade.
#include "core/sampling.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "core/experiment.hpp"

namespace dirq::core {
namespace {

constexpr SensorType kT = kSensorTemperature;

SamplingConfig enabled_cfg(double margin = 0.5, int max_interval = 16) {
  SamplingConfig cfg;
  cfg.enabled = true;
  cfg.margin_frac = margin;
  cfg.max_interval = max_interval;
  return cfg;
}

TEST(Sampling, DisabledAlwaysSamples) {
  SamplingController s(SamplingConfig{});  // enabled = false
  for (std::int64_t e = 0; e < 20; ++e) {
    EXPECT_TRUE(s.should_sample(kT, e));
    s.on_sample(kT, 20.0, 1.0, e);
  }
  EXPECT_EQ(s.samples_taken(), 20);
  EXPECT_EQ(s.samples_skipped(), 0);
}

TEST(Sampling, FirstTwoEpochsAlwaysSampled) {
  SamplingController s(enabled_cfg());
  EXPECT_TRUE(s.should_sample(kT, 0));
  s.on_sample(kT, 20.0, 1.0, 0);
  EXPECT_TRUE(s.should_sample(kT, 1));  // trend needs a second point
}

/// Drives the gate for `epochs` epochs on `value(epoch)`, sampling when
/// it is due and skipping otherwise, and returns the current sampling
/// interval: the distance from the last sample to the next due epoch.
template <typename Value>
std::int64_t run_gate(SamplingController& s, std::int64_t epochs,
                      Value value) {
  std::int64_t last = -1;
  for (std::int64_t epoch = 0; epoch < epochs; ++epoch) {
    if (s.should_sample(kT, epoch)) {
      s.on_sample(kT, value(epoch), /*theta=*/1.0, epoch);
      last = epoch;
    } else {
      s.on_skip(kT);
    }
  }
  return s.next_due(kT) - last;
}

TEST(Sampling, LinearSignalDoublesInterval) {
  SamplingController s(enabled_cfg());
  // Perfectly linear drift.
  const auto ramp = [](std::int64_t e) { return 20.0 + 0.01 * e; };
  EXPECT_EQ(run_gate(s, 200, ramp), 16);  // capped at max_interval
  EXPECT_GT(s.samples_skipped(), s.samples_taken());
}

TEST(Sampling, SurpriseResetsIntervalToOne) {
  SamplingController s(enabled_cfg());
  const auto ramp = [](std::int64_t e) { return 20.0 + 0.01 * e; };
  ASSERT_GT(run_gate(s, 100, ramp), 1);
  // Step change far beyond the margin at the next due sample.
  const std::int64_t epoch = s.next_due(kT);
  s.on_sample(kT, ramp(epoch) + 50.0, 1.0, epoch);
  EXPECT_EQ(s.next_due(kT), epoch + 1);
}

TEST(Sampling, PredictionExtrapolatesTrend) {
  // After samples 10 and 11 at epochs 0 and 1 (slope 1/epoch) the Holt
  // prediction for epoch 3 is 13: a sample there on the line is accurate
  // and doubles the interval (1 -> 2), one a margin off resets it to 1.
  for (const double off : {0.0, 0.6}) {
    SamplingController s(enabled_cfg());
    s.on_sample(kT, 10.0, 1.0, 0);
    s.on_sample(kT, 11.0, 1.0, 1);
    s.on_sample(kT, 13.0 + off, 1.0, 3);
    EXPECT_EQ(s.next_due(kT), off == 0.0 ? 5 : 4) << off;
  }
}

TEST(Sampling, TypesAreIndependent) {
  SamplingController s(enabled_cfg());
  const auto flat = [](std::int64_t) { return 20.0; };
  EXPECT_GT(run_gate(s, 100, flat), 1);
  EXPECT_EQ(s.next_due(kSensorHumidity), 0);  // untouched type: always due
  EXPECT_TRUE(s.should_sample(kSensorHumidity, 100));
}

TEST(Sampling, MaxIntervalBoundsDetectionDelay) {
  SamplingController s(enabled_cfg(0.5, 4));
  const auto flat = [](std::int64_t) { return 20.0; };
  EXPECT_LE(run_gate(s, 100, flat), 4);
}

TEST(Sampling, RejectsGateConfigsItCannotRun) {
  // An enabled gate with max_interval 0 or -3 used to run and never
  // suppress a sample; the margin and the trend weight are fractions.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (int bad : {0, -3}) {
    EXPECT_THROW(SamplingController{enabled_cfg(0.5, bad)},
                 std::invalid_argument)
        << bad;
  }
  for (double bad : {-0.1, 1.5, nan, inf}) {
    EXPECT_THROW(SamplingController{enabled_cfg(bad)}, std::invalid_argument)
        << bad;
    SamplingConfig cfg = enabled_cfg();
    cfg.trend_beta = bad;
    EXPECT_THROW(SamplingController{cfg}, std::invalid_argument) << bad;
  }
  // The edges stay valid, and a disabled gate never reads its config.
  EXPECT_NO_THROW(SamplingController{enabled_cfg(0.0, 1)});
  EXPECT_NO_THROW(SamplingController{enabled_cfg(1.0)});
  SamplingConfig off = enabled_cfg(nan, 0);
  off.enabled = false;
  EXPECT_NO_THROW(SamplingController{off});
}

class SamplingExperimentTest : public ::testing::TestWithParam<double> {};

TEST_P(SamplingExperimentTest, SavesSamplesWithBoundedAccuracyLoss) {
  const double margin = GetParam();
  ExperimentConfig cfg;
  cfg.seed = 42;
  cfg.epochs = 3000;
  cfg.relevant_fraction = 0.4;
  cfg.network.fixed_pct = 5.0;
  cfg.keep_records = false;

  const ExperimentResults base = Experiment(cfg).run();
  EXPECT_EQ(base.samples_skipped, 0);

  cfg.network.sampling.enabled = true;
  cfg.network.sampling.margin_frac = margin;
  const ExperimentResults sup = Experiment(cfg).run();

  // Real savings...
  EXPECT_GT(sup.samples_skipped, 0);
  EXPECT_LT(sup.samples_taken, base.samples_taken);
  const double reduction =
      1.0 - static_cast<double>(sup.samples_taken) /
                static_cast<double>(base.samples_taken);
  EXPECT_GT(reduction, 0.2) << "margin " << margin;
  // ...with bounded accuracy damage: coverage stays high because skipping
  // is gated on the predictor tracking within a fraction of theta.
  EXPECT_GT(sup.coverage_pct.mean(), base.coverage_pct.mean() - 5.0);
}

INSTANTIATE_TEST_SUITE_P(Margins, SamplingExperimentTest,
                         ::testing::Values(0.25, 0.5, 1.0));

TEST(SamplingExperiment, TighterMarginSavesLess) {
  ExperimentConfig cfg;
  cfg.seed = 42;
  cfg.epochs = 3000;
  cfg.network.fixed_pct = 5.0;
  cfg.keep_records = false;
  cfg.network.sampling.enabled = true;

  cfg.network.sampling.margin_frac = 0.1;
  const std::int64_t tight = Experiment(cfg).run().samples_taken;
  cfg.network.sampling.margin_frac = 1.0;
  const std::int64_t loose = Experiment(cfg).run().samples_taken;
  EXPECT_GT(tight, loose);
}

}  // namespace
}  // namespace dirq::core
