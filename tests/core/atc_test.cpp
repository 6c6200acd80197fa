// Threshold controllers: fixed percentages and the ATC reconstruction
// (DESIGN.md §1.7): budget derivation from EHr, band steering, clamping,
// variability-scaled steps.
#include "core/atc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace dirq::core {
namespace {

TEST(NominalSpan, PositiveForAllTypes) {
  for (SensorType t = 0; t < 8; ++t) EXPECT_GT(nominal_span(t), 0.0);
}

TEST(FixedTheta, PercentageOfSpan) {
  FixedTheta f(5.0);
  EXPECT_DOUBLE_EQ(f.theta(kSensorTemperature),
                   0.05 * nominal_span(kSensorTemperature));
  EXPECT_DOUBLE_EQ(f.theta_pct(kSensorTemperature), 5.0);
  EXPECT_DOUBLE_EQ(f.theta_pct(kSensorLight), 5.0);
}

TEST(FixedTheta, HooksAreNoOps) {
  FixedTheta f(3.0);
  f.on_reading(kSensorTemperature, 25.0);
  f.on_update_sent(kSensorTemperature, 10);
  f.on_epoch(10);
  EXPECT_DOUBLE_EQ(f.theta_pct(kSensorTemperature), 3.0);
}

EhrMessage ehr(double umax_per_hour, std::uint32_t nodes = 50) {
  EhrMessage m;
  m.expected_queries_per_hour = 180.0;
  m.umax_per_hour = umax_per_hour;
  m.alive_nodes = nodes;
  m.round = 1;
  return m;
}

TEST(Atc, StartsAtInitialPct) {
  AtcController c(AtcConfig{});
  EXPECT_NEAR(c.theta_pct(kSensorTemperature), 5.0, 1e-9);
}

TEST(Atc, BudgetIsFairShare) {
  AtcController c(AtcConfig{});
  c.on_ehr(ehr(500.0, 50), 0);
  EXPECT_DOUBLE_EQ(c.budget_per_hour(), 10.0);
}

TEST(Atc, ZeroNodesIgnored) {
  AtcController c(AtcConfig{});
  c.on_ehr(ehr(500.0, 0), 0);
  EXPECT_DOUBLE_EQ(c.budget_per_hour(), 0.0);
}

TEST(Atc, RateEstimateScalesToHour) {
  AtcConfig cfg;
  cfg.rate_window_epochs = 600;
  AtcController c(cfg);
  for (std::int64_t e = 1000; e < 1010; ++e) c.on_update_sent(kSensorTemperature, e);
  // 10 updates in a 600-epoch window -> 60/hour (3600-epoch hour).
  EXPECT_NEAR(c.estimated_rate_per_hour(1300), 60.0, 1e-9);
}

TEST(Atc, OldUpdatesLeaveTheWindow) {
  AtcConfig cfg;
  cfg.rate_window_epochs = 100;
  AtcController c(cfg);
  c.on_update_sent(kSensorTemperature, 0);
  c.on_epoch(500);  // trims
  EXPECT_DOUBLE_EQ(c.estimated_rate_per_hour(500), 0.0);
}

TEST(Atc, OverBudgetWidensTheta) {
  AtcConfig cfg;
  cfg.rate_window_epochs = 100;
  cfg.adjust_period = 10;
  AtcController c(cfg);
  c.on_reading(kSensorTemperature, 20.0);  // register the type
  c.on_reading(kSensorTemperature, 21.0);
  c.on_ehr(ehr(50.0, 50), 0);  // budget = 1/hour
  const double before = c.theta_pct(kSensorTemperature);
  for (std::int64_t e = 1; e <= 50; ++e) {
    c.on_update_sent(kSensorTemperature, e);  // way over 1/hour
    c.on_epoch(e);
  }
  EXPECT_GT(c.theta_pct(kSensorTemperature), before);
}

TEST(Atc, UnderBudgetNarrowsTheta) {
  AtcConfig cfg;
  cfg.rate_window_epochs = 100;
  cfg.adjust_period = 10;
  AtcController c(cfg);
  c.on_reading(kSensorTemperature, 20.0);
  c.on_reading(kSensorTemperature, 21.0);
  c.on_ehr(ehr(1e6, 50), 0);  // enormous budget, zero updates sent
  const double before = c.theta_pct(kSensorTemperature);
  for (std::int64_t e = 1; e <= 50; ++e) c.on_epoch(e);
  EXPECT_LT(c.theta_pct(kSensorTemperature), before);
}

TEST(Atc, InsideBandHolds) {
  AtcConfig cfg;
  cfg.rate_window_epochs = 3600;
  cfg.adjust_period = 10;
  AtcController c(cfg);
  c.on_reading(kSensorTemperature, 20.0);
  c.on_reading(kSensorTemperature, 21.0);
  c.on_ehr(ehr(100.0, 1), 0);  // budget = 100/hour; band [45, 55]
  // Send 50/hour steadily. During the first hour the sliding window is
  // still filling (rate reads low, theta narrows); once primed, the rate
  // sits mid-band and theta must hold perfectly still.
  auto drive_hour = [&](std::int64_t from) {
    for (std::int64_t e = from; e < from + 3600; ++e) {
      if (e % 72 == 0) c.on_update_sent(kSensorTemperature, e);
      c.on_epoch(e);
    }
  };
  drive_hour(1);
  const double primed = c.theta_pct(kSensorTemperature);
  drive_hour(3601);
  EXPECT_NEAR(c.theta_pct(kSensorTemperature), primed, 1e-9);
}

TEST(Atc, NoEhrNoAdjustment) {
  AtcConfig cfg;
  cfg.adjust_period = 10;
  AtcController c(cfg);
  c.on_reading(kSensorTemperature, 20.0);
  for (std::int64_t e = 1; e <= 100; ++e) {
    c.on_update_sent(kSensorTemperature, e);
    c.on_epoch(e);
  }
  EXPECT_NEAR(c.theta_pct(kSensorTemperature), 5.0, 1e-9);
}

TEST(Atc, ThetaClampsAtMax) {
  AtcConfig cfg;
  cfg.rate_window_epochs = 100;
  cfg.adjust_period = 1;
  cfg.max_pct = 12.0;
  AtcController c(cfg);
  c.on_reading(kSensorTemperature, 20.0);
  c.on_reading(kSensorTemperature, 30.0);
  c.on_ehr(ehr(0.1, 50), 0);
  for (std::int64_t e = 1; e <= 2000; ++e) {
    c.on_update_sent(kSensorTemperature, e);
    c.on_epoch(e);
  }
  EXPECT_LE(c.theta_pct(kSensorTemperature), 12.0 + 1e-9);
  EXPECT_NEAR(c.theta_pct(kSensorTemperature), 12.0, 0.5);
}

TEST(Atc, ThetaClampsAtMin) {
  AtcConfig cfg;
  cfg.rate_window_epochs = 100;
  cfg.adjust_period = 1;
  cfg.min_pct = 1.0;
  AtcController c(cfg);
  c.on_reading(kSensorTemperature, 20.0);
  c.on_reading(kSensorTemperature, 21.0);
  c.on_ehr(ehr(1e9, 1), 0);
  for (std::int64_t e = 1; e <= 2000; ++e) c.on_epoch(e);
  EXPECT_GE(c.theta_pct(kSensorTemperature), 1.0 - 1e-9);
  EXPECT_NEAR(c.theta_pct(kSensorTemperature), 1.0, 0.1);
}

TEST(Atc, VolatileTypeMovesFaster) {
  // Two controllers over budget; the one whose signal varies more per
  // epoch must widen theta faster (variability-scaled steps).
  AtcConfig cfg;
  cfg.rate_window_epochs = 100;
  cfg.adjust_period = 10;
  AtcController calm(cfg), wild(cfg);
  double v = 20.0;
  for (int i = 0; i < 50; ++i) {
    calm.on_reading(kSensorTemperature, v + 0.01 * (i % 2));
    wild.on_reading(kSensorTemperature, v + 10.0 * (i % 2));
  }
  calm.on_ehr(ehr(0.1, 50), 0);
  wild.on_ehr(ehr(0.1, 50), 0);
  for (std::int64_t e = 1; e <= 30; ++e) {
    calm.on_update_sent(kSensorTemperature, e);
    wild.on_update_sent(kSensorTemperature, e);
    calm.on_epoch(e);
    wild.on_epoch(e);
  }
  EXPECT_GT(wild.theta_pct(kSensorTemperature),
            calm.theta_pct(kSensorTemperature));
}

TEST(Atc, AdjustsOnlyOnPeriodBoundaries) {
  AtcConfig cfg;
  cfg.rate_window_epochs = 100;
  cfg.adjust_period = 1000;
  AtcController c(cfg);
  c.on_reading(kSensorTemperature, 20.0);
  c.on_reading(kSensorTemperature, 25.0);
  c.on_ehr(ehr(0.1, 50), 0);
  for (std::int64_t e = 1; e <= 500; ++e) {
    c.on_update_sent(kSensorTemperature, e);
    c.on_epoch(e);
  }
  EXPECT_NEAR(c.theta_pct(kSensorTemperature), 5.0, 1e-9);  // not yet
}

TEST(Atc, RejectsConfigsTheControlLawCannotRun) {
  const auto rejects = [](const std::string& what, auto mutate) {
    AtcConfig cfg;
    mutate(cfg);
    EXPECT_THROW(AtcController{cfg}, std::invalid_argument) << what;
  };
  // std::clamp(x, min, max) requires min <= max.
  rejects("min > max", [](AtcConfig& c) {
    c.min_pct = 13.0;
    c.max_pct = 12.0;
  });
  // The rate estimate divides by the window.
  rejects("zero window", [](AtcConfig& c) { c.rate_window_epochs = 0; });
  rejects("negative window", [](AtcConfig& c) { c.rate_window_epochs = -600; });
  // The scale bounds divide by the initial theta.
  rejects("zero initial", [](AtcConfig& c) { c.initial_pct = 0.0; });
  rejects("negative initial", [](AtcConfig& c) { c.initial_pct = -5.0; });
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {nan, inf, -inf}) {
    rejects("additive_step_pct", [&](AtcConfig& c) { c.additive_step_pct = bad; });
    rejects("initial_pct", [&](AtcConfig& c) { c.initial_pct = bad; });
    rejects("min_pct", [&](AtcConfig& c) { c.min_pct = bad; });
    rejects("max_pct", [&](AtcConfig& c) { c.max_pct = bad; });
    rejects("gain_up", [&](AtcConfig& c) { c.gain_up = bad; });
    rejects("gain_down", [&](AtcConfig& c) { c.gain_down = bad; });
    rejects("band_lo", [&](AtcConfig& c) { c.band_lo = bad; });
    rejects("band_hi", [&](AtcConfig& c) { c.band_hi = bad; });
    rejects("variability_alpha",
            [&](AtcConfig& c) { c.variability_alpha = bad; });
  }
  // The edges stay legal: a pinned theta, and the defaults.
  AtcConfig pinned;
  pinned.min_pct = pinned.max_pct = 5.0;
  EXPECT_NO_THROW(AtcController{pinned});
  EXPECT_NO_THROW(AtcController{AtcConfig{}});
}

/// The controller as it trimmed its windows eagerly, every epoch: the
/// reference for the trim-at-adjust controller. Same law, same
/// arithmetic, line for line.
class EagerTrimAtc {
 public:
  explicit EagerTrimAtc(AtcConfig cfg) : cfg_(cfg) {}

  double theta(SensorType type) const {
    double scale = 1.0;
    if (auto it = types_.find(type); it != types_.end()) {
      scale = it->second.theta_scale;
    }
    const double pct =
        std::clamp(cfg_.initial_pct * scale, cfg_.min_pct, cfg_.max_pct);
    return pct / 100.0 * nominal_span(type);
  }
  double theta_pct(SensorType type) const {
    return theta(type) / nominal_span(type) * 100.0;
  }
  void on_reading(SensorType type, double reading) {
    TypeState& st = state(type);
    if (st.has_prev) {
      st.variability.push(std::abs(reading - st.prev_reading));
    }
    st.prev_reading = reading;
    st.has_prev = true;
  }
  void on_update_sent(SensorType type, std::int64_t epoch) {
    sent_epochs_.push_back(epoch);
    state(type).sent_epochs.push_back(epoch);
  }
  void on_ehr(const EhrMessage& msg) {
    if (msg.alive_nodes == 0) return;
    budget_per_hour_ =
        msg.umax_per_hour / static_cast<double>(msg.alive_nodes);
  }
  double estimated_rate_per_hour(std::int64_t epoch) const {
    const std::int64_t window_start = epoch - cfg_.rate_window_epochs;
    std::size_t in_window = 0;
    for (auto it = sent_epochs_.rbegin(); it != sent_epochs_.rend(); ++it) {
      if (*it < window_start) break;
      ++in_window;
    }
    return static_cast<double>(in_window) *
           static_cast<double>(kEpochsPerHour) /
           static_cast<double>(cfg_.rate_window_epochs);
  }
  void on_epoch(std::int64_t epoch) {
    const std::int64_t window_start = epoch - cfg_.rate_window_epochs;
    while (!sent_epochs_.empty() && sent_epochs_.front() < window_start) {
      sent_epochs_.pop_front();
    }
    for (auto& [type, st] : types_) {
      while (!st.sent_epochs.empty() &&
             st.sent_epochs.front() < window_start) {
        st.sent_epochs.pop_front();
      }
    }
    if (epoch - last_adjust_epoch_ >= cfg_.adjust_period) {
      last_adjust_epoch_ = epoch;
      adjust(epoch);
    }
  }

 private:
  struct TypeState {
    double theta_scale = 1.0;
    sim::Ewma variability;
    double prev_reading = 0.0;
    bool has_prev = false;
    std::deque<std::int64_t> sent_epochs;
    explicit TypeState(double alpha) : variability(alpha) {}
  };

  TypeState& state(SensorType type) {
    auto it = types_.find(type);
    if (it == types_.end()) {
      it = types_.emplace(type, TypeState(cfg_.variability_alpha)).first;
    }
    return it->second;
  }

  void adjust(std::int64_t epoch) {
    if (budget_per_hour_ <= 0.0) return;
    const double rate = estimated_rate_per_hour(epoch);
    const double lo = cfg_.band_lo * budget_per_hour_;
    const double hi = cfg_.band_hi * budget_per_hour_;
    double direction = 0.0;
    if (rate > hi) {
      direction = cfg_.gain_up;
    } else if (rate < lo) {
      direction = -cfg_.gain_down;
    } else {
      return;
    }
    const double total_sent = static_cast<double>(sent_epochs_.size());
    for (auto& [type, st] : types_) {
      double share = 1.0;
      if (direction > 0.0) {
        share = total_sent > 0.0
                    ? static_cast<double>(st.sent_epochs.size()) / total_sent
                    : 0.0;
        if (share <= 0.0) continue;
      }
      double vol_factor = 1.0;
      if (st.variability.initialized()) {
        const double theta_abs =
            std::clamp(cfg_.initial_pct * st.theta_scale, cfg_.min_pct,
                       cfg_.max_pct) /
            100.0 * nominal_span(type);
        const double vol = st.variability.value() / std::max(theta_abs, 1e-9);
        vol_factor = std::clamp(vol, 0.25, 2.0);
      }
      if (cfg_.law == AtcLaw::Multiplicative) {
        st.theta_scale *= (1.0 + direction * vol_factor * share);
      } else {
        const double step_scale = cfg_.additive_step_pct / cfg_.initial_pct;
        st.theta_scale +=
            (direction > 0.0 ? 1.0 : -1.0) * step_scale * vol_factor * share;
      }
      const double min_scale = cfg_.min_pct / cfg_.initial_pct;
      const double max_scale = cfg_.max_pct / cfg_.initial_pct;
      st.theta_scale = std::clamp(st.theta_scale, min_scale, max_scale);
    }
  }

  AtcConfig cfg_;
  std::map<SensorType, TypeState> types_;
  std::deque<std::int64_t> sent_epochs_;
  double budget_per_hour_ = 0.0;
  std::int64_t last_adjust_epoch_ = 0;
};

class AtcWindows : public ::testing::TestWithParam<AtcLaw> {};

TEST_P(AtcWindows, TrimAtAdjustMatchesEagerTrimEveryEpoch) {
  // A seeded schedule over three types: updates sent before and after
  // each epoch step at nondecreasing epochs (a relay forwards after its
  // own end-of-epoch step), readings with per-type volatility and gaps,
  // and EHr budgets that put the window's rate over, under and inside the
  // band in turn, so adjust widens (where a type's share of the global
  // window matters), narrows and holds. A window of 100 epochs against an
  // adjust period of 10 makes every adjust depend on both trims.
  AtcConfig cfg;
  cfg.law = GetParam();
  cfg.rate_window_epochs = 100;
  cfg.adjust_period = 10;
  AtcController lazy(cfg);
  EagerTrimAtc eager(cfg);
  sim::Rng rng(2024);
  constexpr SensorType kTypes = 3;
  const double send_p[kTypes] = {0.08, 0.03, 0.01};
  double level[kTypes] = {20.0, 55.0, 600.0};
  // Budgets per 600-epoch phase: none yet, then over (widen), under
  // (narrow), around the band, over again, and a phase in which type 2
  // goes silent (a zero share skips the widen step).
  const double umax[] = {0.0, 200.0, 5000.0, 600.0, 150.0, 400.0};
  std::int64_t widened = 0, narrowed = 0, held = 0;
  for (std::int64_t e = 0; e < 3600; ++e) {
    const std::size_t phase = static_cast<std::size_t>(e / 600);
    if (e % 600 == 0 && umax[phase] > 0.0) {
      EhrMessage m;
      m.umax_per_hour = umax[phase];
      m.alive_nodes = 1;
      lazy.on_ehr(m, e);
      eager.on_ehr(m);
    }
    for (SensorType t = 0; t < kTypes; ++t) {
      if (rng.uniform(0.0, 1.0) < 0.9) {
        level[t] += rng.normal(0.0, 0.02 * nominal_span(t) * (t + 1));
        lazy.on_reading(t, level[t]);
        eager.on_reading(t, level[t]);
      }
      const bool silent = t == 2 && phase == 5;
      if (!silent && rng.uniform(0.0, 1.0) < send_p[t]) {
        lazy.on_update_sent(t, e);
        eager.on_update_sent(t, e);
      }
    }
    const double before = lazy.theta_pct(0);
    lazy.on_epoch(e);
    eager.on_epoch(e);
    if (rng.uniform(0.0, 1.0) < 0.05) {  // a relay's send after its epoch step
      const auto t = static_cast<SensorType>(rng.uniform_int(0, kTypes - 1));
      lazy.on_update_sent(t, e);
      eager.on_update_sent(t, e);
    }
    if (e % cfg.adjust_period == 0 && e > 0 && umax[phase] > 0.0) {
      const double after = lazy.theta_pct(0);
      widened += after > before;
      narrowed += after < before;
      held += after == before;
    }
    for (SensorType t = 0; t < kTypes; ++t) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(lazy.theta_pct(t)),
                std::bit_cast<std::uint64_t>(eager.theta_pct(t)))
          << "epoch " << e << " type " << t;
    }
    ASSERT_EQ(lazy.estimated_rate_per_hour(e), eager.estimated_rate_per_hour(e))
        << "epoch " << e;
  }
  // The schedule really drove all three branches of the control law.
  EXPECT_GT(widened, 0);
  EXPECT_GT(narrowed, 0);
  EXPECT_GT(held, 0);
}

INSTANTIATE_TEST_SUITE_P(Laws, AtcWindows,
                         ::testing::Values(AtcLaw::Multiplicative,
                                           AtcLaw::Additive));

}  // namespace
}  // namespace dirq::core
