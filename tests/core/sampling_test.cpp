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

TEST(Sampling, LinearSignalDoublesInterval) {
  SamplingController s(enabled_cfg());
  double v = 20.0;
  std::int64_t epoch = 0;
  for (int i = 0; i < 200; ++i) {
    if (s.should_sample(kT, epoch)) {
      s.on_sample(kT, v, /*theta=*/1.0, epoch);
    } else {
      s.on_skip(kT);
    }
    v += 0.01;  // perfectly linear drift
    ++epoch;
  }
  EXPECT_EQ(s.interval(kT), 16);  // capped at max_interval
  EXPECT_GT(s.samples_skipped(), s.samples_taken());
}

TEST(Sampling, SurpriseResetsIntervalToOne) {
  SamplingController s(enabled_cfg());
  std::int64_t epoch = 0;
  double v = 20.0;
  for (int i = 0; i < 100; ++i) {
    if (s.should_sample(kT, epoch)) s.on_sample(kT, v, 1.0, epoch);
    v += 0.01;
    ++epoch;
  }
  ASSERT_GT(s.interval(kT), 1);
  // Step change far beyond the margin at the next due sample.
  while (!s.should_sample(kT, epoch)) ++epoch;
  s.on_sample(kT, v + 50.0, 1.0, epoch);
  EXPECT_EQ(s.interval(kT), 1);
}

TEST(Sampling, PredictionExtrapolatesTrend) {
  SamplingController s(enabled_cfg());
  s.on_sample(kT, 10.0, 1.0, 0);
  s.on_sample(kT, 11.0, 1.0, 1);  // slope 1/epoch
  EXPECT_NEAR(s.predict(kT, 3), 13.0, 1e-9);
}

TEST(Sampling, TypesAreIndependent) {
  SamplingController s(enabled_cfg());
  std::int64_t epoch = 0;
  for (int i = 0; i < 100; ++i) {
    if (s.should_sample(kT, epoch)) s.on_sample(kT, 20.0, 1.0, epoch);
    ++epoch;
  }
  EXPECT_GT(s.interval(kT), 1);
  EXPECT_EQ(s.interval(kSensorHumidity), 1);  // untouched type
  EXPECT_TRUE(s.should_sample(kSensorHumidity, epoch));
}

TEST(Sampling, MaxIntervalBoundsDetectionDelay) {
  SamplingController s(enabled_cfg(0.5, 4));
  std::int64_t epoch = 0;
  for (int i = 0; i < 100; ++i) {
    if (s.should_sample(kT, epoch)) s.on_sample(kT, 20.0, 1.0, epoch);
    ++epoch;
  }
  EXPECT_LE(s.interval(kT), 4);
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
