// Sampling suppression — the paper's stated future work (§8):
//
//   "A drawback of DirQ is that we assume that nodes are able to sample
//    sensors continuously to check if the thresholds have been exceeded.
//    This consumes a lot of energy. We are currently developing a
//    statistical prediction technique that can be used by DirQ to ensure
//    that sensor sampling costs are minimized."
//
// This module implements that technique in the spirit of model-driven
// acquisition (the paper's ref [12]): per (node, type), a Holt linear
// (level + trend) predictor models the reading's trajectory. While the
// prediction keeps matching reality to within a fraction of theta, the
// physical sampling interval doubles (up to a cap); the first surprise
// snaps it back to every-epoch sampling. Skipped epochs cost no ADC energy
// and feed nothing into the range table — which is safe precisely when the
// predictor is accurate, because a reading tracking its prediction inside
// the theta margin cannot have escaped the stored tuple.
#pragma once

#include <cstdint>

#include "sim/flat_map.hpp"
#include "sim/types.hpp"

namespace dirq::core {

struct SamplingConfig {
  bool enabled = false;
  /// Hard cap on the sampling interval (epochs). Bounds the worst-case
  /// detection delay of an unpredicted threshold crossing.
  int max_interval = 16;
  /// Accepted prediction error as a fraction of the current theta; larger
  /// values suppress more samples and risk more missed crossings.
  double margin_frac = 0.5;
  /// Trend smoothing factor of the Holt predictor.
  double trend_beta = 0.3;
};

/// Per-node sampling gate. One instance per DirqNode; tracks all types.
class SamplingController {
 public:
  /// Throws std::invalid_argument on an enabled config the gate cannot
  /// run: max_interval < 1 (an interval that never suppresses a sample)
  /// or margin_frac or trend_beta outside [0, 1] (NaN included). A
  /// disabled config is accepted as is: that gate never suppresses.
  explicit SamplingController(SamplingConfig cfg);

  /// True if a physical sample is due at `epoch`. Always true when
  /// disabled, on the first epoch for a type, or once the current interval
  /// has elapsed.
  [[nodiscard]] bool should_sample(SensorType type, std::int64_t epoch) const;

  /// Feeds an actual sampled value. `theta` is the node's current absolute
  /// threshold for the type (the error budget the range table already
  /// tolerates). Adapts the interval: accurate prediction doubles it,
  /// a surprise resets it to 1.
  void on_sample(SensorType type, double value, double theta,
                 std::int64_t epoch);

  /// Records an epoch where sampling was skipped (for the energy ledger).
  void on_skip(SensorType type);

  /// Fast path for the disabled gate: counts the physical sample without
  /// maintaining predictor state (which is dead weight when suppression is
  /// off — the epoch loop calls this once per sensor per node per epoch).
  void count_sample() noexcept { ++taken_; }

  [[nodiscard]] bool enabled() const noexcept { return cfg_.enabled; }

  [[nodiscard]] std::int64_t samples_taken() const noexcept { return taken_; }
  [[nodiscard]] std::int64_t samples_skipped() const noexcept { return skipped_; }

  /// Epoch the next physical sample is due for a type (0 — always due —
  /// when the type has never been sampled). This is the whole gate:
  /// should_sample(t, e) == (e >= next_due(t)) for an enabled controller,
  /// which is what lets the epoch engine mirror the gate into a flat
  /// per-plan-slot array and evaluate it without touching the FlatMap.
  [[nodiscard]] std::int64_t next_due(SensorType type) const;

  [[nodiscard]] const SamplingConfig& config() const noexcept { return cfg_; }

 private:
  struct TypeState {
    double level = 0.0;
    double trend = 0.0;  // per-epoch slope estimate
    std::int64_t last_epoch = -1;
    int interval = 1;
    std::int64_t next_due = 0;
    bool has_level = false;
    bool has_trend = false;
  };

  SamplingConfig cfg_;
  sim::FlatMap<SensorType, TypeState> types_;
  std::int64_t taken_ = 0;
  std::int64_t skipped_ = 0;
};

}  // namespace dirq::core
