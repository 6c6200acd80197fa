// Persistent worker pool for index-parallel loops.
//
// Extracted from SweepRunner::for_each_index so the same claiming loop can
// serve both inter-run fan-out (one experiment per index) and intra-run
// fan-out (one subtree shard / sensor-type batch per index inside
// DirqNetwork::process_epoch). No thread is ever created on the epoch hot
// path.
//
// Handoff. parallel_for publishes a job by storing one atomic claim word:
// the job's generation in the high 32 bits and its unclaimed item count in
// the low 32. Every thread, the caller included, claims items with a
// compare-exchange on that word, so a claim carries its job's generation:
// a worker that wakes late sees a different generation and can neither
// claim from nor read a finished or newer job. The join waits only for
// items that were claimed — once the caller finds nothing left to claim it
// waits for the claimed items still running on workers, never for a
// sleeping worker to wake up and check in.
//
// Spin, then park. After a job, a worker spins on the claim word for
// kSpinWindow, then parks on a condition variable; the caller's join spins
// for the same window before it parks. The window is sized to the gap
// between back-to-back epochs (two fork-joins per epoch, plus the
// simulation loop's work between epochs), so in a running simulation the
// workers are awake when the next job arrives, and an idle pool costs at
// most one window of CPU per worker before it sleeps. The fast path
// (workers spinning, join satisfied while spinning) takes no mutex and
// allocates nothing: the per-item error slots are a member that only
// grows.
//
// Scheduling is dynamic, so completion order is nondeterministic — callers
// must only do index-addressed writes (slot i belongs to index i) and
// merge in index order afterwards, which is exactly what keeps the
// parallel epoch path byte-identical to the sequential one.
//
// Nesting. A work item must not call parallel_for on its own pool: that
// call throws std::logic_error from whichever thread makes it (the caller
// or a worker), and the outer job still runs every index and rethrows it
// after its join. So does a concurrent call from an unrelated thread.
// Calling parallel_for on a *different* pool from inside a work item is
// fine (a sweep cell owns its network's pool).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dirq::sim {

class ThreadPool {
 public:
  /// How long an idle worker (and a waiting join) spins before it parks.
  /// Sized to the gap between back-to-back epoch fork-joins: long enough
  /// that the second thread is awake for the next job of a running epoch
  /// loop, short enough that a pool between unrelated jobs (or a sweep
  /// pool after its single job) goes to sleep almost at once.
  static constexpr std::chrono::microseconds kSpinWindow{100};

  /// `threads` is the total concurrency including the calling thread;
  /// 0 means std::thread::hardware_concurrency() (at least 1). A pool of
  /// size 1 spawns no workers and runs every job inline.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + the calling thread).
  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs work(i) exactly once for every i in [0, count). The calling
  /// thread participates; returns after every index completed. Exceptions
  /// are captured per index and the lowest-indexed one is rethrown after
  /// the join, so error reporting is deterministic regardless of
  /// scheduling. Throws std::logic_error when the pool is already running
  /// a job (a nested call from `work`, or a concurrent one), and
  /// std::length_error when count does not fit the 32-bit claim counter.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& work);

  /// 0 -> hardware_concurrency (at least 1), anything else unchanged.
  [[nodiscard]] static unsigned resolve(unsigned threads) {
    return threads != 0 ? threads
                        : std::max(1u, std::thread::hardware_concurrency());
  }

 private:
  void worker_loop();
  /// Claims and runs items of job `gen` until none is left (or the claim
  /// word moved on to another job).
  void drain(std::uint32_t gen);

  // Claim word: generation << 32 | unclaimed items. Written by every
  // claim; spun on by idle workers.
  alignas(64) std::atomic<std::uint64_t> claim_{0};
  // Items finished in the current job. Spun on by the caller's join.
  alignas(64) std::atomic<std::size_t> done_{0};

  alignas(64) std::atomic<bool> busy_{false};  // a parallel_for is running
  std::atomic<bool> stop_{false};
  std::atomic<unsigned> parked_workers_{0};
  std::atomic<bool> caller_parked_{false};
  std::uint32_t generation_ = 0;  // caller-only

  // The current job. Written before its claim word is published and read
  // only by a thread holding one of its claims, which keeps the job open.
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t count_ = 0;
  std::vector<std::exception_ptr> errors_;  // only grows

  std::mutex mutex_;  // park/wake only
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;

  std::vector<std::thread> workers_;  // last: the threads use the above
};

}  // namespace dirq::sim
