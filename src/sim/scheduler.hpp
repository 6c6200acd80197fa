// Discrete-event scheduler: the OMNeT++ substitute at the bottom of the
// reproduction (DESIGN.md §1.1).
//
// Semantics match what DirQ needs from OMNeT++:
//   * events fire in non-decreasing timestamp order;
//   * events with equal timestamps fire in scheduling (FIFO) order;
//   * any pending event can be cancelled through its handle;
//   * scheduling during dispatch is allowed, including at the current time.
//
// Cancellation is lazy: a cancelled entry stays in the heap and is skipped
// at pop time. That is simpler than a mutable indexed heap and cheap while
// cancellations are rare; the library itself cancels nothing (LMAC runs one
// event per slot and files its neighbour timeouts per frame itself).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/types.hpp"

namespace dirq::sim {

/// Opaque identifier for a scheduled event; used to cancel it.
struct EventHandle {
  std::uint64_t id = 0;
  [[nodiscard]] bool valid() const noexcept { return id != 0; }
};

class Scheduler {
 public:
  using Callback = std::function<void()>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time: timestamp of the most recently dispatched
  /// event (0 before any dispatch).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `when`. `when` must be >= now();
  /// earlier times are clamped to now().
  EventHandle schedule_at(SimTime when, Callback fn);

  /// Schedules `fn` `delay` ticks from now (delay >= 0).
  EventHandle schedule_in(SimTime delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event. Returns true if the event was still pending
  /// (i.e. this call prevented it from firing), false if it already fired,
  /// was already cancelled, or the handle is invalid.
  bool cancel(EventHandle h);

  /// True if the event is still pending (scheduled, not fired/cancelled).
  [[nodiscard]] bool is_pending(EventHandle h) const {
    return h.valid() && live_.contains(h.id);
  }

  /// Dispatches the single earliest pending event. Returns false if the
  /// queue is empty (time does not advance).
  bool step();

  /// Runs until the queue is empty or `max_events` have been dispatched.
  /// Returns the number of events dispatched.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs all events with timestamp <= `until`. Afterwards now() == until
  /// (even if the queue drained early), so fixed-step drivers can
  /// interleave with event-driven components. Returns events dispatched.
  std::size_t run_until(SimTime until);

  /// Number of pending (non-cancelled) events.
  [[nodiscard]] std::size_t pending() const noexcept { return live_.size(); }

  /// Total events dispatched since construction.
  [[nodiscard]] std::uint64_t dispatched() const noexcept { return dispatched_; }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    std::uint64_t id;
    Callback fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  bool pop_one();

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_set<std::uint64_t> live_;  // ids scheduled and not yet fired/cancelled
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t dispatched_ = 0;
};

}  // namespace dirq::sim
