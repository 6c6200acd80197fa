#include "core/atc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace dirq::core {

AtcController::AtcController(AtcConfig cfg) : cfg_(cfg) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("AtcConfig: ") + what);
  };
  for (double x : {cfg.additive_step_pct, cfg.initial_pct, cfg.min_pct,
                   cfg.max_pct, cfg.gain_up, cfg.gain_down, cfg.band_lo,
                   cfg.band_hi, cfg.variability_alpha}) {
    if (!std::isfinite(x)) fail("every parameter must be finite");
  }
  if (!(cfg.initial_pct > 0.0)) fail("initial_pct must be > 0");
  if (cfg.min_pct > cfg.max_pct) fail("min_pct must be <= max_pct");
  if (cfg.rate_window_epochs <= 0) fail("rate_window_epochs must be > 0");
}

AtcController::TypeState& AtcController::state(SensorType type) {
  auto it = types_.find(type);
  if (it == types_.end()) {
    it = types_.emplace(type, TypeState(cfg_.variability_alpha)).first;
  }
  return it->second;
}

double AtcController::theta(SensorType type) const {
  double scale = 1.0;
  if (auto it = types_.find(type); it != types_.end()) {
    scale = it->second.theta_scale;
  }
  const double pct =
      std::clamp(cfg_.initial_pct * scale, cfg_.min_pct, cfg_.max_pct);
  return pct / 100.0 * nominal_span(type);
}

void AtcController::on_reading(SensorType type, double reading) {
  observe(state(type), reading);
}

void AtcController::on_update_sent(SensorType type, std::int64_t epoch) {
  sent_epochs_.push_back(epoch);
  state(type).sent_epochs.push_back(epoch);
}

void AtcController::on_ehr(const EhrMessage& msg, std::int64_t /*epoch*/) {
  if (msg.alive_nodes == 0) return;
  // Fair share of the network-wide budget. Every transmission (origin or
  // relay) counts against it, matching Fig. 6's network-wide msg count.
  budget_per_hour_ = msg.umax_per_hour / static_cast<double>(msg.alive_nodes);
}

double AtcController::estimated_rate_per_hour(std::int64_t epoch) const {
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

void AtcController::on_epoch(std::int64_t epoch) {
  if (epoch - last_adjust_epoch_ < cfg_.adjust_period) return;
  last_adjust_epoch_ = epoch;
  // Only adjust reads the window sizes (estimated_rate_per_hour counts
  // from the back), so the windows are trimmed only when one is due. That
  // is exact: trimming every epoch and trimming once here both pop the
  // maximal prefix of stamps older than this window start, so adjust sees
  // the same deques. Between adjusts they hold at most one adjust period
  // of extra sends.
  const std::int64_t window_start = epoch - cfg_.rate_window_epochs;
  while (!sent_epochs_.empty() && sent_epochs_.front() < window_start) {
    sent_epochs_.pop_front();
  }
  for (auto& [type, st] : types_) {
    while (!st.sent_epochs.empty() && st.sent_epochs.front() < window_start) {
      st.sent_epochs.pop_front();
    }
  }
  adjust(epoch);
}

void AtcController::adjust(std::int64_t epoch) {
  if (budget_per_hour_ <= 0.0) return;  // no EHr received yet
  const double rate = estimated_rate_per_hour(epoch);
  const double lo = cfg_.band_lo * budget_per_hour_;
  const double hi = cfg_.band_hi * budget_per_hour_;

  // Direction is shared by all types (updates are not attributed to a
  // type in the window), but the step is scaled per type by the observed
  // variability: a volatile signal needs a bigger theta change to alter
  // its update rate, a quiet one barely any.
  double direction = 0.0;
  if (rate > hi) {
    direction = cfg_.gain_up;
  } else if (rate < lo) {
    direction = -cfg_.gain_down;
  } else {
    return;  // inside the paper's 45-55 % band: hold
  }

  const double total_sent = static_cast<double>(sent_epochs_.size());
  for (auto& [type, st] : types_) {
    // Widening throttles update traffic, so it only makes sense for types
    // actually producing traffic: scale the widen step by this type's
    // share of the window's transmissions. A silent type (e.g. a slow
    // soil-moisture field) must never be dragged wide by its chatty
    // co-located siblings — wide-and-stale ranges miss real sources.
    // Narrowing (direction < 0) buys accuracy for free and applies to all.
    double share = 1.0;
    if (direction > 0.0) {
      share = total_sent > 0.0
                  ? static_cast<double>(st.sent_epochs.size()) / total_sent
                  : 0.0;
      if (share <= 0.0) continue;
    }
    double vol_factor = 1.0;
    if (st.variability.initialized()) {
      // Normalise variability against the current absolute theta: if the
      // signal moves ~theta per epoch, full step; if it barely moves,
      // shrink the step (nothing to gain from changing theta fast).
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
      // Additive: move theta by a fixed number of span-percentage points
      // (expressed in scale units), same sign convention.
      const double step_scale = cfg_.additive_step_pct / cfg_.initial_pct;
      st.theta_scale +=
          (direction > 0.0 ? 1.0 : -1.0) * step_scale * vol_factor * share;
    }
    // Keep the scale inside the pct clamp range so it cannot wind up.
    const double min_scale = cfg_.min_pct / cfg_.initial_pct;
    const double max_scale = cfg_.max_pct / cfg_.initial_pct;
    st.theta_scale = std::clamp(st.theta_scale, min_scale, max_scale);
  }
}

}  // namespace dirq::core
