// Discrete-event scheduler: the OMNeT++ substitute at the bottom of the
// reproduction.
//
// Semantics match what the LMAC slot loop needs from OMNeT++:
//   * events fire in non-decreasing timestamp order;
//   * events with equal timestamps fire in scheduling (FIFO) order;
//   * scheduling during dispatch is allowed, including at the current time;
//   * run_until drains every event up to a time and then moves the clock
//     there, so fixed-step drivers interleave with event-driven ones.
//
// Events cannot be cancelled: LMAC keeps one slot event pending and files
// its neighbour timeouts per frame itself.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/types.hpp"

namespace dirq::sim {

class Scheduler {
 public:
  using Callback = std::function<void()>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time: timestamp of the most recently dispatched
  /// event, or the last run_until bound (0 before either).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `when`. `when` must be >= now();
  /// earlier times are clamped to now().
  void schedule_at(SimTime when, Callback fn);

  /// Runs all events with timestamp <= `until`. Afterwards now() == until
  /// (even if the queue drained early), so fixed-step drivers can
  /// interleave with event-driven components. Returns events dispatched.
  std::size_t run_until(SimTime until);

  /// Number of pending events.
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  /// Total events dispatched since construction.
  [[nodiscard]] std::uint64_t dispatched() const noexcept { return dispatched_; }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    Callback fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
};

}  // namespace dirq::sim
