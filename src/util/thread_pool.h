// thread_pool.h -- fixed-size worker pool used to run independent
// experiment cells, and the instances within each cell, in parallel
// (each instance owns a forked RNG stream, so results are identical
// regardless of worker count). parallel_for is its one entry point.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dash::util {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency() (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Tasks currently waiting in the queue (not yet claimed by a
  /// worker). Test/diagnostic hook.
  std::size_t queue_depth() const {
    std::lock_guard lock(mu_);
    return queue_.size();
  }

  /// Run fn(i) for i in [0, count) across the pool and wait for all.
  /// Exceptions from tasks are rethrown (the first one encountered).
  /// The calling thread participates in the work, so the call is safe
  /// (and makes progress) even from inside a pool task -- nested
  /// parallel_for cannot deadlock on occupied workers.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

 private:
  /// Queued work unit. `tag` groups the helper runners of one
  /// parallel_for call so the call can erase its still-pending helpers
  /// once every index is done -- a nested parallel_for whose
  /// caller-runner drained the whole range would otherwise leave its
  /// helpers parked in the queue (as no-op closures pinning the copied
  /// fn) until the outer tasks finish.
  struct Task {
    std::function<void()> fn;
    std::uint64_t tag;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t next_tag_ = 0;  ///< guarded by mu_
  bool stop_ = false;
};

}  // namespace dash::util
