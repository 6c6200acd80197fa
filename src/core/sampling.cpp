#include "core/sampling.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace dirq::core {

SamplingController::SamplingController(SamplingConfig cfg) : cfg_(cfg) {
  if (!cfg.enabled) return;
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("SamplingConfig: ") + what);
  };
  const auto unit = [](double x) { return x >= 0.0 && x <= 1.0; };
  if (cfg.max_interval < 1) fail("max_interval must be >= 1");
  if (!unit(cfg.margin_frac)) fail("margin_frac must be in [0, 1]");
  if (!unit(cfg.trend_beta)) fail("trend_beta must be in [0, 1]");
}

bool SamplingController::should_sample(SensorType type,
                                       std::int64_t epoch) const {
  if (!cfg_.enabled) return true;
  auto it = types_.find(type);
  if (it == types_.end()) return true;  // never sampled this type
  return epoch >= it->second.next_due;
}

double SamplingController::predict(SensorType type, std::int64_t epoch) const {
  auto it = types_.find(type);
  if (it == types_.end() || !it->second.has_level) return 0.0;
  const TypeState& st = it->second;
  const double gap = static_cast<double>(epoch - st.last_epoch);
  return st.level + st.trend * gap;
}

void SamplingController::on_sample(SensorType type, double value, double theta,
                                   std::int64_t epoch) {
  ++taken_;
  TypeState& st = types_[type];
  if (!st.has_level) {
    st.level = value;
    st.has_level = true;
    st.last_epoch = epoch;
    st.next_due = epoch + 1;  // need a second sample to estimate the trend
    return;
  }
  const auto gap = static_cast<double>(std::max<std::int64_t>(
      1, epoch - st.last_epoch));
  const double predicted = st.level + st.trend * gap;
  const double slope = (value - st.level) / gap;
  if (st.has_trend) {
    st.trend = cfg_.trend_beta * slope + (1.0 - cfg_.trend_beta) * st.trend;
  } else {
    st.trend = slope;
    st.has_trend = true;
  }
  st.level = value;
  st.last_epoch = epoch;

  const double margin = cfg_.margin_frac * theta;
  if (std::abs(value - predicted) <= margin) {
    st.interval = std::min(st.interval * 2, cfg_.max_interval);
  } else {
    st.interval = 1;  // surprised: back to every-epoch sampling
  }
  st.next_due = epoch + st.interval;
}

void SamplingController::on_skip(SensorType /*type*/) { ++skipped_; }

int SamplingController::interval(SensorType type) const {
  auto it = types_.find(type);
  return it == types_.end() ? 1 : it->second.interval;
}

std::int64_t SamplingController::next_due(SensorType type) const {
  auto it = types_.find(type);
  return it == types_.end() ? 0 : it->second.next_due;
}

}  // namespace dirq::core
