// Fixed-size thread pool for embarrassingly parallel experiment cells.
//
// Deliberately work-stealing-free: one FIFO queue, a fixed set of
// workers, and futures returned in submission order. Determinism is the
// caller's contract — tasks must derive all randomness from their own
// inputs (seed, run index), never from execution order — and the pool
// keeps its side by never reordering, dropping, or duplicating tasks.
// Exceptions thrown by a task are captured and rethrown from the
// corresponding future's get(). Destruction is graceful: every task
// already submitted runs to completion before the workers join
// (DESIGN.md Section 5: no partially executed experiment cells).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

namespace cvr {

/// Resolves a user-facing thread-count knob: 0 means "all hardware
/// threads" (std::thread::hardware_concurrency(), at least 1); any
/// other value is taken verbatim.
std::size_t resolve_thread_count(std::size_t requested);

class ThreadPool {
 public:
  /// Spawns exactly `threads` workers. Throws std::invalid_argument on
  /// 0 — call resolve_thread_count() first to map 0 to the hardware.
  explicit ThreadPool(std::size_t threads);

  /// Drains the queue (pending tasks still run) and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// True iff the calling thread is one of this pool's workers.
  /// Nesting policy: submit() from inside a worker of the SAME pool
  /// runs the task inline instead of enqueueing it — with one FIFO
  /// queue, a worker that blocked on a future for a task queued behind
  /// its own would deadlock the moment every worker does it (any task
  /// that fans out onto the pool it runs on, e.g. an allocator lent the
  /// pool its caller's tasks already occupy). Inline execution keeps the
  /// future contract (value or exception captured) and, because a
  /// fork-join span only ever partitions disjoint state, cannot change
  /// any result bit.
  bool on_worker_thread() const;

  /// Enqueues `fn` and returns a future for its result. Tasks start in
  /// FIFO order; a task's exception surfaces from future.get(). Called
  /// from one of this pool's own workers, the task instead runs inline
  /// before submit() returns (see on_worker_thread()).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    // std::function requires copyable targets, so the move-only
    // packaged_task rides behind a shared_ptr.
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::forward<F>(fn));
    std::future<Result> future = task->get_future();
    if (on_worker_thread()) {
      (*task)();  // nested submit: run inline, never self-deadlock
      return future;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        throw std::runtime_error("ThreadPool: submit after shutdown");
      }
      queue_.emplace_back([task] { (*task)(); });
    }
    wake_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

}  // namespace cvr
