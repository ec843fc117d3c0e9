#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace dash::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front().fn);
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;

  // Indices are claimed from a shared atomic by "runner" loops: up to
  // size() runners are queued for the workers and the CALLER runs one
  // inline. Caller participation makes the call reentrancy-safe --
  // invoked from inside a pool task (a worker), the caller-runner
  // alone drains every index, so no cyclic wait on occupied workers
  // can deadlock (the old one-task-per-index + future::get formulation
  // did exactly that).
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t count;
    std::function<void(std::size_t)> fn;
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr first_error;
  };
  auto state = std::make_shared<State>();
  state->count = count;
  state->fn = fn;

  const auto runner = [state] {
    for (;;) {
      const std::size_t i = state->next.fetch_add(1);
      if (i >= state->count) return;
      try {
        state->fn(i);
      } catch (...) {
        std::lock_guard lock(state->mu);
        if (!state->first_error) {
          state->first_error = std::current_exception();
        }
      }
      if (state->done.fetch_add(1) + 1 == state->count) {
        std::lock_guard lock(state->mu);
        state->cv.notify_all();
      }
    }
  };

  const std::size_t helpers = std::min(workers_.size(), count);
  std::uint64_t tag;
  {
    std::lock_guard lock(mu_);
    tag = ++next_tag_;
    for (std::size_t i = 0; i < helpers; ++i) queue_.push_back({runner, tag});
  }
  cv_.notify_all();

  runner();  // the caller claims indices too
  {
    std::unique_lock lock(state->mu);
    state->cv.wait(lock, [&] { return state->done.load() == count; });
  }
  {
    // Every index is done: erase this call's still-queued helpers so a
    // nested invocation (workers occupied, caller-runner drained the
    // whole range) doesn't pile dead closures into the queue for the
    // lifetime of the outer run.
    std::lock_guard lock(mu_);
    std::erase_if(queue_, [tag](const Task& t) { return t.tag == tag; });
  }
  if (state->first_error) std::rethrow_exception(state->first_error);
}

}  // namespace dash::util
