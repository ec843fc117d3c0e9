#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dash::util {
namespace {

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroTasks) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [](std::size_t i) {
                          if (i == 5) throw std::runtime_error("task 5");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ManyTasksSumCorrectly) {
  ThreadPool pool(3);
  std::atomic<long> total{0};
  pool.parallel_for(1000, [&](std::size_t i) {
    total.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(total.load(), 999L * 1000 / 2);
}

TEST(ThreadPool, SingleWorkerStillWorks) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(10, [&](std::size_t i) {
    // Single worker: strictly sequential, no data race.
    order.push_back(static_cast<int>(i));
  });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, DefaultSizeAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForErrorStillRunsRemainingIndices) {
  // One failing index must not strand the rest of the range: every
  // other index still executes exactly once (experiment suites rely on
  // this -- a poisoned cell fails its own future, the shard completes).
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          if (i == 17) throw std::runtime_error("cell 17");
                          hits[i].fetch_add(1);
                        }),
      std::runtime_error);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), i == 17 ? 0 : 1) << "index " << i;
  }
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPool, ParallelForRethrowsExactlyOnceForManyFailures) {
  // Several indices throwing must surface as one exception (the first
  // encountered), not terminate() from a second in-flight rethrow.
  ThreadPool pool(4);
  std::atomic<int> failures{0};
  try {
    pool.parallel_for(32, [&](std::size_t i) {
      if (i % 4 == 0) {
        failures.fetch_add(1);
        throw std::runtime_error("index " + std::to_string(i));
      }
    });
    FAIL() << "expected parallel_for to throw";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(failures.load(), 8);
}

TEST(ThreadPool, PoolUsableAfterParallelForException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   4, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  // The pool (and its workers) must survive for the next call.
  std::atomic<int> ran{0};
  pool.parallel_for(16, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, NestedParallelForPropagatesInnerException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [&](std::size_t outer) {
                          pool.parallel_for(4, [&](std::size_t inner) {
                            if (outer == 1 && inner == 2) {
                              throw std::runtime_error("nested");
                            }
                          });
                        }),
      std::runtime_error);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPool, NestedParallelForLeavesNoQueuedHelpers) {
  // Occupy every worker, then run parallel_for from this thread: the
  // caller-runner drains the whole range while the helpers sit in the
  // queue. On return those helpers must have been erased -- a grid run
  // issues a nested call per cell, and leftover no-op closures would
  // pile up for the outer run's lifetime.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> blocked{0};
  // size() + 1 blocking indices: one per worker plus the occupier's
  // own caller-runner, so once all have started every worker is held.
  const int gates = static_cast<int>(pool.size()) + 1;
  std::thread occupier([&] {
    pool.parallel_for(static_cast<std::size_t>(gates), [&](std::size_t) {
      blocked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (blocked.load() < gates) std::this_thread::yield();
  std::atomic<int> ran{0};
  for (int call = 0; call < 50; ++call) {
    pool.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 50 * 8);
  EXPECT_EQ(pool.queue_depth(), 0u);
  release.store(true);
  occupier.join();
}

}  // namespace
}  // namespace dash::util
