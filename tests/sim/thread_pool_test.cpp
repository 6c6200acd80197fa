// sim::ThreadPool: the shared claiming loop under SweepRunner and the
// parallel epoch engine — coverage, reuse across jobs, deterministic
// exception reporting, size-1 inline execution, the nesting rule, and a
// stress tier for the spin-then-park handoff (back-to-back jobs, parked
// workers and joins, destruction in every worker state) that the tsan job
// runs too.
#include "sim/thread_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace dirq::sim {
namespace {

using std::chrono::milliseconds;

/// Longer than the spin window, so idle workers and a waiting join park.
constexpr auto kPastWindow = ThreadPool::kSpinWindow * 5;

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SizeOneRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(17, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 17 * 16 / 2);
  }
}

TEST(ThreadPool, LowestIndexedExceptionWins) {
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    try {
      pool.parallel_for(32, [&](std::size_t i) {
        if (i % 7 == 3) throw std::runtime_error("idx " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "idx 3");  // deterministic despite claiming
    }
  }
}

TEST(ThreadPool, CountBelowPoolSize) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(2);
  pool.parallel_for(2, [&](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "no indices"; });
}

TEST(ThreadPool, ResolveZeroMeansHardware) {
  EXPECT_GE(ThreadPool::resolve(0), 1u);
  EXPECT_EQ(ThreadPool::resolve(3), 3u);
}

// --- nesting ---------------------------------------------------------------

struct NestedOutcome {
  std::array<std::atomic<int>, 8> hits{};
  std::atomic<int> nested_threw{0};
  std::atomic<int> nested_ran{0};
  std::atomic<int> worker_items{0};  // outer items run off the caller thread
  bool outer_threw_logic_error = false;
};

/// Runs `scenario` on its own thread and waits at most `box` for it.
/// Returns false on a hang: the thread is then detached and the pool
/// deliberately leaked, because that thread is still blocked inside it.
bool finishes_within(std::chrono::seconds box, ThreadPool* pool,
                     const std::shared_ptr<NestedOutcome>& out,
                     void (*scenario)(ThreadPool&, NestedOutcome&)) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread runner([pool, out, scenario, done = std::move(done)]() mutable {
    try {
      scenario(*pool, *out);
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  if (finished.wait_for(box) == std::future_status::timeout) {
    runner.detach();
    return false;
  }
  runner.join();
  finished.get();
  return true;
}

/// Outer job of 8 items; every item tries a nested call on the same pool
/// and catches what it throws. Item 0 waits (bounded) for an item to start
/// on a worker, so the nested call is made from both kinds of thread.
void nested_caught(ThreadPool& pool, NestedOutcome& out) {
  const std::thread::id caller = std::this_thread::get_id();
  pool.parallel_for(8, [&](std::size_t i) {
    out.hits[i].fetch_add(1);
    if (std::this_thread::get_id() != caller) out.worker_items.fetch_add(1);
    if (i == 0 && pool.size() > 1) {
      const auto give_up =
          std::chrono::steady_clock::now() + milliseconds(5000);
      while (out.worker_items.load() == 0 &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(milliseconds(1));
      }
    }
    try {
      pool.parallel_for(4, [&](std::size_t) { out.nested_ran.fetch_add(1); });
    } catch (const std::logic_error&) {
      out.nested_threw.fetch_add(1);
    }
    std::this_thread::sleep_for(milliseconds(1));
  });
}

/// Item 3 nests without catching: the outer call still runs every index
/// and rethrows the logic_error after its join.
void nested_uncaught(ThreadPool& pool, NestedOutcome& out) {
  try {
    pool.parallel_for(8, [&](std::size_t i) {
      out.hits[i].fetch_add(1);
      if (i == 3) {
        pool.parallel_for(4, [&](std::size_t) { out.nested_ran.fetch_add(1); });
      }
    });
  } catch (const std::logic_error&) {
    out.outer_threw_logic_error = true;
  }
}

TEST(ThreadPool, NestedCallOnSamePoolThrows) {
  // Time-boxed: a nested call that corrupts the outer job can hang it,
  // and a hang must fail this test rather than stall the suite.
  constexpr std::chrono::seconds kBox{20};
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    auto* pool = new ThreadPool(threads);

    auto caught = std::make_shared<NestedOutcome>();
    if (!finishes_within(kBox, pool, caught, nested_caught)) {
      ADD_FAILURE() << "nested parallel_for hung the outer job";
      return;
    }
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(caught->hits[i].load(), 1) << "outer item " << i;
    }
    EXPECT_EQ(caught->nested_threw.load(), 8);
    EXPECT_EQ(caught->nested_ran.load(), 0);
    if (threads > 1) {
      EXPECT_GT(caught->worker_items.load(), 0);
    }

    auto uncaught = std::make_shared<NestedOutcome>();
    if (!finishes_within(kBox, pool, uncaught, nested_uncaught)) {
      ADD_FAILURE() << "nested parallel_for hung the outer job";
      return;
    }
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(uncaught->hits[i].load(), 1) << "outer item " << i;
    }
    EXPECT_TRUE(uncaught->outer_threw_logic_error);
    EXPECT_EQ(uncaught->nested_ran.load(), 0);

    // The pool is still usable after a rejected nested call.
    std::vector<std::atomic<int>> hits(16);
    pool->parallel_for(16, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    delete pool;
  }
}

TEST(ThreadPool, NestingADifferentPoolIsAllowed) {
  ThreadPool outer(4);
  std::vector<std::unique_ptr<ThreadPool>> inner;
  for (int i = 0; i < 4; ++i) inner.push_back(std::make_unique<ThreadPool>(2));
  std::vector<std::atomic<int>> hits(16);
  outer.parallel_for(4, [&](std::size_t i) {
    inner[i]->parallel_for(4, [&](std::size_t j) {
      hits[i * 4 + j].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// --- stress: the spin-then-park handoff ------------------------------------

/// Checks one job of `n` (<= 10) items against per-index hit counters.
void run_exactly_once(ThreadPool& pool, std::size_t n,
                      std::array<std::atomic<int>, 10>& hits,
                      const std::string& where) {
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  pool.parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), i < n ? 1 : 0) << where << " index " << i;
  }
}

TEST(ThreadPoolStress, BackToBackJobsRunEveryIndexOnce) {
  // 10^4 jobs of 0-9 items with no gap: workers stay in their spin window
  // and race the caller for every claim; 8 threads oversubscribe a 4-core
  // host, so claims also interleave with preemption.
  for (const unsigned threads : {2u, 8u}) {
    ThreadPool pool(threads);
    std::array<std::atomic<int>, 10> hits{};
    std::uint64_t lcg = 12345;
    for (int job = 0; job < 10000; ++job) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      const auto n = static_cast<std::size_t>((lcg >> 33) % 10);
      run_exactly_once(pool, n, hits,
                       "threads " + std::to_string(threads) + " job " +
                           std::to_string(job));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ThreadPoolStress, ParkedWorkersWakeForTheNextJob) {
  // Gaps longer than the spin window: every job finds the workers parked
  // and wakes them through the condition variable.
  ThreadPool pool(8);
  std::array<std::atomic<int>, 10> hits{};
  for (int job = 0; job < 40; ++job) {
    std::this_thread::sleep_for(kPastWindow);
    run_exactly_once(pool, 1 + job % 9, hits, "job " + std::to_string(job));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ThreadPoolStress, JoinParksWhileAWorkerItemOutlastsTheWindow) {
  // One item runs on a worker for longer than the spin window while the
  // caller has nothing left to claim: the join spins, parks, and is woken
  // by that item's completion.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> slow_started{0};
    std::vector<std::atomic<int>> hits(4);
    pool.parallel_for(4, [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (std::this_thread::get_id() != caller) {
        if (slow_started.exchange(1) == 0) {
          std::this_thread::sleep_for(kPastWindow * 4);
        }
        return;
      }
      // Caller items wait (bounded) until a worker holds the slow item.
      const auto give_up = std::chrono::steady_clock::now() + milliseconds(500);
      while (slow_started.load() == 0 &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
    if (round % 3 == 0) std::this_thread::sleep_for(kPastWindow);
  }
}

TEST(ThreadPoolStress, LowestIndexedExceptionAcrossRounds) {
  // Throwing rounds interleave with clean ones, with and without parking
  // gaps: every index still runs once, the lowest thrower wins, and no
  // error slot leaks into a later job.
  ThreadPool pool(8);
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = 2 + static_cast<std::size_t>(round % 30);
    const std::size_t stride = 2 + static_cast<std::size_t>(round % 5);
    const std::size_t first = static_cast<std::size_t>(round) % stride;
    const bool throwing = round % 4 != 3;
    std::vector<std::atomic<int>> hits(n);
    std::string caught;
    try {
      pool.parallel_for(n, [&](std::size_t i) {
        hits[i].fetch_add(1);
        if (throwing && i % stride == first) {
          throw std::runtime_error("idx " + std::to_string(i));
        }
      });
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    const std::string want =
        throwing && first < n ? "idx " + std::to_string(first) : "";
    EXPECT_EQ(caught, want) << "round " << round;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
    if (::testing::Test::HasFailure()) return;
    if (round % 10 == 0) std::this_thread::sleep_for(kPastWindow);
  }
}

TEST(ThreadPoolStress, DestructionInEveryWorkerState) {
  std::array<std::atomic<int>, 10> hits{};
  for (int rep = 0; rep < 30; ++rep) {
    const std::string where = "rep " + std::to_string(rep);
    {
      ThreadPool pool(8);  // never used: workers still in their first spin
    }
    {
      ThreadPool pool(8);  // right after a job: workers still spinning
      run_exactly_once(pool, 9, hits, where + " spinning");
    }
    {
      ThreadPool pool(8);  // after the workers parked
      run_exactly_once(pool, 9, hits, where + " parked");
      std::this_thread::sleep_for(kPastWindow);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace dirq::sim
