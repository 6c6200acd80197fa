// Threshold control: fixed thresholds (paper §7.1) and the Adaptive
// Threshold Control mechanism (paper §6).
//
// The paper expresses thresholds as percentages (theta = 3%, 5%, 9%); we
// interpret the percentage against each sensor type's nominal value span
// (the realistic dynamic range of the physical quantity), giving an
// absolute threshold in sensor units:
//
//     theta_abs(type) = theta_pct / 100 * nominal_span(type)
//
// ATC itself is reconstructed from the paper's constraints — the detailed
// mechanism lives in the unavailable ref [13]; see DESIGN.md §1.7 for the
// full rationale. In short:
//
//   * the root derives Umax/Hr = fMax(k, d) * EHr and broadcasts it with
//     the hourly EHr estimate;
//   * each node takes the fair share Umax/Hr / N as its local update-rate
//     budget and steers its transmission rate into the paper's
//     [0.45, 0.55] * budget band by multiplicative theta adjustment;
//   * adjustment steps scale with the locally observed rate of variation
//     of the measured parameter (EWMA of |reading delta|), so a volatile
//     sensor converges in a few steps instead of drifting for hours.
#pragma once

#include <cmath>
#include <cstdint>
#include <deque>
#include <map>

#include "core/messages.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace dirq::core {

/// Nominal dynamic range of each sensor type in sensor units; the base the
/// paper's theta percentages are applied to. Matches the default field
/// parameters in src/data (diurnal swing + front amplitude + noise).
/// Constexpr-inline: theta(type) sits on the per-sample hot path.
constexpr double nominal_span(SensorType type) noexcept {
  switch (type) {
    case kSensorTemperature: return 22.0;   // ~11 C to ~33 C
    case kSensorHumidity: return 45.0;      // ~35 % to ~80 %
    case kSensorLight: return 1100.0;       // ~0 to ~1100 lux
    case kSensorSoilMoisture: return 25.0;  // ~22 % to ~47 %
    default: return 30.0;
  }
}

/// Strategy interface consulted by DirqNode for the current threshold.
class ThetaController {
 public:
  virtual ~ThetaController() = default;

  /// Absolute threshold for this sensor type, in sensor units.
  [[nodiscard]] virtual double theta(SensorType type) const = 0;

  /// Threshold as a percentage of the type's nominal span (for reporting).
  [[nodiscard]] double theta_pct(SensorType type) const {
    return theta(type) / nominal_span(type) * 100.0;
  }

  // Feedback hooks (no-ops for fixed thresholds).
  virtual void on_reading(SensorType /*type*/, double /*reading*/) {}
  virtual void on_update_sent(SensorType /*type*/, std::int64_t /*epoch*/) {}
  virtual void on_ehr(const EhrMessage& /*msg*/, std::int64_t /*epoch*/) {}
  virtual void on_epoch(std::int64_t /*epoch*/) {}
};

/// Fixed threshold: theta_pct percent of each type's nominal span.
class FixedTheta final : public ThetaController {
 public:
  explicit FixedTheta(double theta_pct) : pct_(theta_pct) {}
  [[nodiscard]] double theta(SensorType type) const override {
    return pct_ / 100.0 * nominal_span(type);
  }

 private:
  double pct_;
};

/// Control law for the theta adjustment step (ablation A1, DESIGN.md §4).
enum class AtcLaw {
  Multiplicative,  // theta *= (1 +- gain): scale-free, the default
  Additive,        // theta += +- step_pct of span: fixed-size steps
};

struct AtcConfig {
  AtcLaw law = AtcLaw::Multiplicative;
  double additive_step_pct = 0.4;  // step size (in span %) for Additive
  double initial_pct = 5.0;  // starting theta before the first EHr arrives
  double min_pct = 0.5;      // accuracy floor
  /// Update-suppression ceiling. Also bounds the worst-case staleness of
  /// any announced range (theta per hop), i.e. the coverage guarantee.
  double max_pct = 12.0;
  /// Sliding window (epochs) over which the node estimates its own
  /// update-transmission rate. One paper "hour" is 3600 epochs; a shorter
  /// window reacts faster at the price of estimation noise.
  std::int64_t rate_window_epochs = 600;
  /// Control step applied every `adjust_period` epochs.
  std::int64_t adjust_period = 50;
  double gain_up = 0.10;    // multiplicative widen step when over budget
  double gain_down = 0.05;  // multiplicative narrow step when under budget
  /// Band targeted around the fair-share budget; the paper pins the
  /// network-wide cost between 0.45 and 0.55 of flooding (abstract, §6).
  double band_lo = 0.45;
  double band_hi = 0.55;
  /// EWMA smoothing for the local rate-of-variation estimate.
  double variability_alpha = 0.05;
};

/// Per-node ATC state machine (one instance per node; tracks all types).
class AtcController final : public ThetaController {
 public:
  /// Per-type state. Entries live in a std::map and are never erased, so
  /// a reference to one stays valid while other types are inserted (a
  /// relay's on_update_sent inserts mid-epoch the types it forwards).
  struct TypeState {
    double theta_scale = 1.0;  // multiplier on the initial theta
    sim::Ewma variability;     // EWMA of |reading - prev reading|
    double prev_reading = 0.0;
    bool has_prev = false;
    std::deque<std::int64_t> sent_epochs;  // this type's txs in the window
    TypeState() : variability(0.0) {}
    explicit TypeState(double alpha) : variability(alpha) {}
  };

  /// Throws std::invalid_argument on a config the control law cannot run:
  /// a non-finite parameter, initial_pct <= 0 (infinite scale bounds),
  /// min_pct > max_pct (an empty clamp range) or rate_window_epochs <= 0
  /// (a rate divided by zero).
  explicit AtcController(AtcConfig cfg);

  /// on_reading's whole body, for one type's state: the epoch engine runs
  /// it as a flat pass over cached references, so both paths share every
  /// bit of the EWMA arithmetic.
  static void observe(TypeState& st, double reading) noexcept {
    if (st.has_prev) st.variability.push(std::abs(reading - st.prev_reading));
    st.prev_reading = reading;
    st.has_prev = true;
  }

  /// The type's state, created on first use.
  TypeState& state(SensorType type);

  /// Epoch of the last adjust; on_epoch adjusts once `epoch -
  /// last_adjust_epoch() >= adjust_period` and is a no-op otherwise.
  [[nodiscard]] std::int64_t last_adjust_epoch() const noexcept {
    return last_adjust_epoch_;
  }

  [[nodiscard]] double theta(SensorType type) const override;

  void on_reading(SensorType type, double reading) override;
  void on_update_sent(SensorType type, std::int64_t epoch) override;
  void on_ehr(const EhrMessage& msg, std::int64_t epoch) override;
  /// When an adjust is due: trims the sliding windows, then adjusts.
  void on_epoch(std::int64_t epoch) override;

  /// Node's current updates/hour budget share (0 before the first EHr).
  [[nodiscard]] double budget_per_hour() const noexcept { return budget_per_hour_; }

  /// Estimated own update transmissions per hour over the sliding window.
  [[nodiscard]] double estimated_rate_per_hour(std::int64_t epoch) const;

  [[nodiscard]] const AtcConfig& config() const noexcept { return cfg_; }

 private:
  void adjust(std::int64_t epoch);

  AtcConfig cfg_;
  std::map<SensorType, TypeState> types_;
  std::deque<std::int64_t> sent_epochs_;  // all update txs inside the window
  double budget_per_hour_ = 0.0;
  std::int64_t last_adjust_epoch_ = 0;
};

}  // namespace dirq::core
