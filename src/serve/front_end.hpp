// Serve front-end: admission batching between the open-loop arrival
// stream and the DirQ network.
//
// Arrivals are offered as they occur on the virtual clock and wait in a
// strict-FIFO bounded queue; once the queue is full further arrivals are
// shed (counted, never silently dropped). At every injection boundary the
// front-end drains the queue head-first:
//
//   - cacheable range queries first consult the ResultCache — a hit is
//     answered on the spot, costs the network nothing, and does not count
//     against the boundary's injection budget;
//   - misses (and uncacheable multi-attribute/regional queries) are routed
//     through core::QueryAdmission to a sink tree and injected, at most
//     `max_inject_per_boundary` per boundary — the knob that models the
//     sink's finite dissemination capacity and makes overload visible as
//     queue growth rather than as an unbounded injection storm;
//   - whatever the budget could not serve stays queued, strictly in
//     arrival order, for the next boundary.
//
// Latency of a query is (answer boundary − arrival epoch) in virtual
// epochs: queueing delay plus the injection wait, which is what a client
// of the serve plane actually observes. The serve plane rides the instant
// transport, so each injection's audited outcome is DirqNetwork::inject's
// return value.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "core/admission.hpp"
#include "core/network.hpp"
#include "metrics/histogram.hpp"
#include "serve/cache.hpp"
#include "serve/trace_gen.hpp"

namespace dirq::serve {

struct FrontEndConfig {
  bool cache_enabled = true;
  std::size_t cache_entries = 1024;
  /// How long a cache entry may keep serving after the network's update
  /// counter moves (Fresh entries never expire — see serve/cache.hpp).
  std::int64_t stale_epochs = 64;
  /// Injection boundary period in epochs (the serve-plane analogue of the
  /// batch driver's query_period; 1 = a boundary every epoch).
  std::int64_t inject_period = 1;
  /// Network injections allowed per boundary. Cache hits are free and do
  /// not consume this budget.
  std::size_t max_inject_per_boundary = 4;
  /// Queue bound; arrivals beyond it are shed.
  std::size_t max_queue = 8192;

  void validate() const;
};

class FrontEnd {
 public:
  struct Totals {
    std::int64_t arrived = 0;
    std::int64_t answered = 0;        // injected_answered + cache_answered
    std::int64_t injected = 0;        // answered over the network
    std::int64_t cache_answered = 0;  // answered from the cache
    std::int64_t shed = 0;            // dropped at the full queue
    std::int64_t peak_queue_depth = 0;
  };

  /// The network and admission layer must outlive the front-end.
  FrontEnd(FrontEndConfig cfg, core::DirqNetwork& network,
           core::QueryAdmission& admission);

  /// Offers one arrival (sheds it if the queue is full).
  void offer(const Arrival& a);

  /// Drains the queue at an injection boundary at virtual time `epoch`.
  void on_boundary(std::int64_t epoch);

  /// Call after topology churn: cached tuples no longer bound the new
  /// tree structure, so the whole cache is dropped.
  void notify_churn();

  /// Invoked once per network injection with (sink tree, epoch) — the
  /// server feeds each sink's rate predictor through this so the hourly
  /// EHr floods track the served (not the offered) stream.
  using InjectedHook = std::function<void(TreeId, std::int64_t)>;
  void set_on_injected(InjectedHook hook) { on_injected_ = std::move(hook); }

  [[nodiscard]] const Totals& totals() const noexcept { return totals_; }
  [[nodiscard]] const CacheStats& cache_stats() const noexcept {
    return cache_.stats();
  }
  [[nodiscard]] const metrics::LatencyHistogram& latency() const noexcept {
    return latency_;
  }
  [[nodiscard]] const metrics::LatencyHistogram& sink_latency(
      TreeId t) const {
    return sink_latency_.at(t);
  }
  [[nodiscard]] std::int64_t sink_injected(TreeId t) const {
    return sink_injected_.at(t);
  }
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return queue_.size();
  }
  [[nodiscard]] const FrontEndConfig& config() const noexcept { return cfg_; }

 private:
  /// Injects the queued arrival and finishes its bookkeeping.
  void inject_and_account(const Arrival& a, std::int64_t epoch);
  /// Captures the believed sources' own tuples and inserts a cache entry
  /// for the answered range query.
  void capture_entry(const query::RangeQuery& q,
                     const core::QueryOutcome& outcome, std::int64_t epoch);
  void record_answer(const Arrival& a, std::int64_t epoch, TreeId tree);

  FrontEndConfig cfg_;
  core::DirqNetwork& network_;
  core::QueryAdmission& admission_;
  ResultCache cache_;
  std::deque<Arrival> queue_;
  Totals totals_;
  metrics::LatencyHistogram latency_;
  std::vector<metrics::LatencyHistogram> sink_latency_;
  std::vector<std::int64_t> sink_injected_;
  QueryId next_id_ = 1;
  InjectedHook on_injected_;
};

}  // namespace dirq::serve
