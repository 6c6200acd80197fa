#include "serve/trace_gen.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace dirq::serve {

void TraceGenConfig::validate() const {
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    throw std::invalid_argument("TraceGenConfig: rate must be finite and > 0");
  }
  if (shape == ArrivalShape::Burst) {
    if (burst_length_epochs <= 0) {
      throw std::invalid_argument(
          "TraceGenConfig: burst_length_epochs must be > 0");
    }
    if (burst_gap_epochs < 0) {
      throw std::invalid_argument(
          "TraceGenConfig: burst_gap_epochs must be >= 0");
    }
  }
  if (pool_size == 0) {
    throw std::invalid_argument("TraceGenConfig: pool_size must be > 0");
  }
  // Negated comparisons, so NaN is rejected too.
  if (!(subset_fraction >= 0.0 && subset_fraction <= 1.0)) {
    throw std::invalid_argument(
        "TraceGenConfig: subset_fraction must be in [0, 1]");
  }
  if (!(multi_attr_fraction >= 0.0 && multi_attr_fraction <= 1.0)) {
    throw std::invalid_argument(
        "TraceGenConfig: multi_attr_fraction must be in [0, 1]");
  }
  if (multi_attr_fraction > 0.0 && multi_attr_count < 2) {
    throw std::invalid_argument(
        "TraceGenConfig: multi_attr_count must be >= 2");
  }
}

TraceGen::TraceGen(TraceGenConfig cfg, query::WorkloadGenerator& workload,
                   sim::Rng rng)
    : cfg_(cfg), rng_(std::move(rng)) {
  cfg_.validate();
  pool_.reserve(cfg_.pool_size);
  for (std::size_t i = 0; i < cfg_.pool_size; ++i) {
    const query::RangeQuery q = workload.next(0);
    pool_.push_back({q.type, q.lo, q.hi});
  }
  if (cfg_.multi_attr_fraction > 0.0) {
    // A small multi pool suffices — these arrivals bypass the cache, so
    // recurrence buys nothing; variety matters more than popularity.
    const std::size_t multi_pool = std::max<std::size_t>(cfg_.pool_size / 4, 1);
    multi_pool_.reserve(multi_pool);
    for (std::size_t i = 0; i < multi_pool; ++i) {
      multi_pool_.push_back(workload.next_multi(0, cfg_.multi_attr_count));
    }
  }
}

TraceGen::TraceGen(TraceGenConfig cfg, std::vector<Arrival> recorded)
    : cfg_(cfg), rng_(0), replay_(true), recorded_(std::move(recorded)) {}

void TraceGen::drain_until(std::int64_t epoch, std::vector<Arrival>& out) {
  if (replay_) {
    while (replay_cursor_ < recorded_.size() &&
           recorded_[replay_cursor_].epoch <= epoch) {
      out.push_back(recorded_[replay_cursor_]);
      ++replay_cursor_;
      ++emitted_;
    }
    return;
  }
  // Continuous-time Poisson arrivals floored onto the epoch lattice. The
  // clock only moves forward, so draining is monotone and each arrival is
  // emitted exactly once.
  while (clock_ <= static_cast<double>(epoch) + 1.0 - 1e-12) {
    const std::int64_t at = static_cast<std::int64_t>(std::floor(clock_));
    if (at > epoch) break;
    bool keep = true;
    if (cfg_.shape == ArrivalShape::Burst) {
      const std::int64_t period = cfg_.burst_length_epochs + cfg_.burst_gap_epochs;
      keep = (at % period) < cfg_.burst_length_epochs;
    }
    // Draw the arrival's content even when the burst gap drops it, so the
    // kept sub-stream is identical across shapes sharing a seed.
    if (keep) {
      emit_one(at, out);
    } else {
      std::vector<Arrival> discard;
      emit_one(at, discard);
      --emitted_;
    }
    clock_ += rng_.exponential(cfg_.rate);
  }
}

void TraceGen::emit_one(std::int64_t epoch, std::vector<Arrival>& out) {
  Arrival a;
  a.epoch = epoch;
  if (!multi_pool_.empty() && rng_.bernoulli(cfg_.multi_attr_fraction)) {
    a.multi = true;
    a.multi_q = multi_pool_[rng_.index(multi_pool_.size())];
    a.multi_q.id = 0;
    a.multi_q.epoch = epoch;
  } else {
    // Popularity skew: squaring a uniform draw concentrates picks on the
    // low indices, so a handful of pool entries dominate the stream and
    // the cache sees genuine recurrence.
    const double u = rng_.uniform(0.0, 1.0);
    const std::size_t idx = std::min(
        static_cast<std::size_t>(u * u * static_cast<double>(pool_.size())),
        pool_.size() - 1);
    const PoolEntry& base = pool_[idx];
    a.range.id = 0;
    a.range.type = base.type;
    a.range.epoch = epoch;
    if (rng_.bernoulli(cfg_.subset_fraction)) {
      // Middle half of the base window: a strict sub-range, answerable by
      // containment from a cached answer for the base predicate.
      const double quarter = (base.hi - base.lo) / 4.0;
      a.range.lo = base.lo + quarter;
      a.range.hi = base.hi - quarter;
    } else {
      a.range.lo = base.lo;
      a.range.hi = base.hi;
    }
  }
  out.push_back(std::move(a));
  ++emitted_;
}

std::vector<Arrival> TraceGen::load_trace(std::istream& is) {
  std::vector<Arrival> arrivals;
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error("serve trace: empty input (expected header)");
  }
  std::size_t line_no = 1;
  std::int64_t prev_epoch = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream row(line);
    Arrival a;
    long long type = 0;
    if (!(row >> a.epoch >> type >> a.range.lo >> a.range.hi)) {
      throw std::runtime_error("serve trace: malformed row at line " +
                               std::to_string(line_no));
    }
    if (a.epoch < prev_epoch) {
      throw std::runtime_error("serve trace: epochs must be non-decreasing "
                               "(line " + std::to_string(line_no) + ")");
    }
    if (a.range.lo > a.range.hi) {
      throw std::runtime_error("serve trace: lo > hi at line " +
                               std::to_string(line_no));
    }
    if (type < 0 || type > std::numeric_limits<SensorType>::max()) {
      throw std::runtime_error(
          "serve trace: sensor type out of range at line " +
          std::to_string(line_no));
    }
    prev_epoch = a.epoch;
    a.range.type = static_cast<SensorType>(type);
    a.range.epoch = a.epoch;
    arrivals.push_back(std::move(a));
  }
  return arrivals;
}

}  // namespace dirq::serve
