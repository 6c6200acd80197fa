#include "sim/thread_pool.hpp"

#include <limits>
#include <stdexcept>

namespace dirq::sim {

namespace {

constexpr std::uint64_t kItemMask = 0xffffffffu;

std::uint32_t generation_of(std::uint64_t claim) {
  return static_cast<std::uint32_t>(claim >> 32);
}

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins until `ready()` holds or ThreadPool::kSpinWindow has passed;
/// returns whether it holds. The clock is read once per 64 polls.
template <class Ready>
bool spin_until(const Ready& ready) {
  const auto deadline =
      std::chrono::steady_clock::now() + ThreadPool::kSpinWindow;
  for (unsigned polls = 1;; ++polls) {
    if (ready()) return true;
    cpu_relax();
    if (polls % 64 == 0 && std::chrono::steady_clock::now() >= deadline) {
      return ready();
    }
  }
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = resolve(threads);
  workers_.reserve(n - 1);
  for (unsigned t = 1; t < n; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Under the mutex, so a worker between its park check and its wait
    // cannot miss it; spinning workers poll stop_ directly.
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true);
  }
  cv_start_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::drain(std::uint32_t gen) {
  std::uint64_t claim = claim_.load(std::memory_order_acquire);
  for (;;) {
    if (generation_of(claim) != gen || (claim & kItemMask) == 0) return;
    if (!claim_.compare_exchange_weak(claim, claim - 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      continue;
    }
    // The claim holds job `gen` open (its join waits for this item), so
    // the job fields are stable until done_ moves below.
    const std::size_t count = count_;
    const std::size_t i = count - static_cast<std::size_t>(claim & kItemMask);
    try {
      (*job_)(i);
    } catch (...) {
      errors_[i] = std::current_exception();
    }
    if (done_.fetch_add(1) + 1 == count && caller_parked_.load()) {
      // The join gave up spinning: wake it (the lock orders this notify
      // after its predicate check).
      { const std::lock_guard<std::mutex> lock(mutex_); }
      cv_done_.notify_one();
    }
    claim = claim_.load(std::memory_order_acquire);
  }
}

void ThreadPool::worker_loop() {
  std::uint32_t seen = 0;  // generation of the last job this worker saw
  const auto ready = [&] {
    return stop_.load() || generation_of(claim_.load()) != seen;
  };
  for (;;) {
    if (!spin_until(ready)) {
      std::unique_lock<std::mutex> lock(mutex_);
      parked_workers_.fetch_add(1);
      cv_start_.wait(lock, ready);
      parked_workers_.fetch_sub(1);
    }
    if (stop_.load()) return;
    seen = generation_of(claim_.load(std::memory_order_acquire));
    drain(seen);
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& work) {
  if (busy_.exchange(true, std::memory_order_acquire)) {
    throw std::logic_error(
        "ThreadPool::parallel_for: the pool is already running a job "
        "(nested call from a work item, or a concurrent call)");
  }
  struct Release {
    std::atomic<bool>& busy;
    ~Release() { busy.store(false, std::memory_order_release); }
  } release{busy_};

  if (workers_.empty() || count <= 1) {
    // Inline, in index order; the first exception is the lowest-indexed.
    std::exception_ptr first;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        work(i);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
    return;
  }
  if (count > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("ThreadPool::parallel_for: count exceeds 2^32-1");
  }
  if (errors_.size() < count) errors_.resize(count);
  job_ = &work;
  count_ = count;
  done_.store(0, std::memory_order_relaxed);
  const std::uint32_t gen = ++generation_;
  claim_.store((static_cast<std::uint64_t>(gen) << 32) | count);
  if (parked_workers_.load() != 0) {
    { const std::lock_guard<std::mutex> lock(mutex_); }
    cv_start_.notify_all();
  }
  drain(gen);  // the calling thread is part of the pool

  // Every item is claimed now; wait for the ones still running elsewhere.
  const auto finished = [&] { return done_.load() == count; };
  if (!spin_until(finished)) {
    std::unique_lock<std::mutex> lock(mutex_);
    caller_parked_.store(true);
    cv_done_.wait(lock, finished);
    caller_parked_.store(false);
  }

  std::exception_ptr first;
  for (std::size_t i = 0; i < count; ++i) {
    if (!errors_[i]) continue;
    if (!first) first = errors_[i];
    errors_[i] = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace dirq::sim
