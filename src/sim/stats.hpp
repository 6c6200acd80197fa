// Statistics primitives used across the reproduction:
//   RunningStat  — Welford online mean/variance; the experiment driver
//                  summarises each per-query series with one.
//   Ewma         — exponentially weighted moving average (ATC's rate of
//                  variation, the query-rate predictor).
//   TimeSeries   — fixed-width time bins; Fig. 6 is "update messages per
//                  100-epoch bin" which is exactly this.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/types.hpp"

namespace dirq::sim {

/// Welford's online algorithm for mean / variance / min / max.
/// Numerically stable for the 20 000-sample-per-node streams used here.
class RunningStat {
 public:
  void push(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Population variance (biased); 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const noexcept {
    return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exponentially weighted moving average with configurable smoothing.
/// Used by the query-rate predictor and by ATC's local rate tracker.
class Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void push(double x) noexcept {
    if (!initialized_) {
      value_ = x;
      initialized_ = true;
    } else {
      value_ = alpha_ * x + (1.0 - alpha_) * value_;
    }
  }

  [[nodiscard]] bool initialized() const noexcept { return initialized_; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

/// Accumulates events into fixed-width time bins indexed from t = 0.
/// Fig. 6 ("total update messages transmitted every 100 epochs") is a
/// TimeSeries with bin_width = 100 epochs.
class TimeSeries {
 public:
  explicit TimeSeries(std::int64_t bin_width) : bin_width_(bin_width) {}

  /// Adds `count` events at time `t` (>= 0, arbitrary order allowed).
  void record(std::int64_t t, double count = 1.0) {
    if (t < 0) t = 0;
    const auto bin = static_cast<std::size_t>(t / bin_width_);
    if (bin >= bins_.size()) bins_.resize(bin + 1, 0.0);
    bins_[bin] += count;
  }

  [[nodiscard]] std::int64_t bin_width() const noexcept { return bin_width_; }
  [[nodiscard]] std::size_t bin_count() const noexcept { return bins_.size(); }
  [[nodiscard]] double bin(std::size_t i) const { return i < bins_.size() ? bins_[i] : 0.0; }
  [[nodiscard]] const std::vector<double>& bins() const noexcept { return bins_; }

  [[nodiscard]] double total() const noexcept {
    double s = 0.0;
    for (double b : bins_) s += b;
    return s;
  }

  /// Mean over bins [first, last) clamped to the recorded range.
  [[nodiscard]] double mean_over(std::size_t first, std::size_t last) const {
    last = std::min(last, bins_.size());
    if (first >= last) return 0.0;
    double s = 0.0;
    for (std::size_t i = first; i < last; ++i) s += bins_[i];
    return s / static_cast<double>(last - first);
  }

 private:
  std::int64_t bin_width_;
  std::vector<double> bins_;
};

}  // namespace dirq::sim
