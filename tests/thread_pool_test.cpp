#include "src/util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace cvr {
namespace {

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_GE(resolve_thread_count(0), 1u);  // 0 = hardware, at least 1
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(7), 7u);
}

TEST(ThreadPool, ZeroWorkersThrows) {
  EXPECT_THROW(ThreadPool pool(0), std::invalid_argument);
}

TEST(ThreadPool, ReportsSize) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&executed] { ++executed; }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(executed.load(), 200);
}

TEST(ThreadPool, FuturesKeepSubmissionOrderRegardlessOfExecutionOrder) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  // Whatever order the workers ran the tasks in, the i-th future holds
  // the i-th task's result — the property the ensemble's spec-order
  // reduction rests on.
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  auto bad = pool.submit([]() -> int {
    throw std::runtime_error("cell exploded");
  });
  auto good = pool.submit([] { return 41 + 1; });
  EXPECT_THROW(
      {
        try {
          bad.get();
        } catch (const std::runtime_error& error) {
          EXPECT_STREQ(error.what(), "cell exploded");
          throw;
        }
      },
      std::runtime_error);
  // The worker that ran the throwing task is still alive and serving.
  EXPECT_EQ(good.get(), 42);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ShutdownDrainsPendingTasks) {
  std::atomic<int> executed{0};
  std::vector<std::future<int>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      futures.push_back(pool.submit([&executed, i] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++executed;
        return i;
      }));
    }
    // Destructor runs here with most of the queue still pending.
  }
  EXPECT_EQ(executed.load(), 50);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(futures[i].get(), i);
  }
}

TEST(ThreadPool, ManyProducersOneQueue) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  std::vector<std::thread> producers;
  std::vector<std::future<void>> futures[4];
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &total, &futures, p] {
      for (int i = 0; i < 25; ++i) {
        futures[p].push_back(pool.submit([&total] { ++total; }));
      }
    });
  }
  for (auto& producer : producers) producer.join();
  for (auto& per_producer : futures) {
    for (auto& future : per_producer) future.get();
  }
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, NestedSubmitFromWorkerRunsInline) {
  // A worker submitting to its own pool must not enqueue (a pool with
  // one busy worker would deadlock on its own FIFO); the nested task
  // runs inline and its future is ready before submit() returns.
  ThreadPool pool(1);
  std::atomic<int> order{0};
  auto outer = pool.submit([&pool, &order] {
    EXPECT_TRUE(pool.on_worker_thread());
    int inner_at = -1;
    auto inner = pool.submit([&order, &inner_at] { inner_at = ++order; });
    EXPECT_EQ(inner.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    inner.get();
    EXPECT_EQ(inner_at, 1);
    ++order;
  });
  outer.get();
  EXPECT_EQ(order.load(), 2);
}

TEST(ThreadPool, OnWorkerThreadIsPerPool) {
  // Thread identity is per pool: a worker of pool A is not "on" pool B,
  // so A's workers may still fan out to B (an ensemble cell whose
  // allocator owns a separate within-slot pool relies on this).
  ThreadPool a(1);
  ThreadPool b(1);
  EXPECT_FALSE(a.on_worker_thread());
  EXPECT_FALSE(b.on_worker_thread());
  auto checked = a.submit([&a, &b] {
    EXPECT_TRUE(a.on_worker_thread());
    EXPECT_FALSE(b.on_worker_thread());
    // Cross-pool submit enqueues normally and completes.
    auto cross = b.submit([&b] { return b.on_worker_thread(); });
    EXPECT_TRUE(cross.get());
  });
  checked.get();
}

TEST(ThreadPool, NestedSubmitExceptionStaysInFuture) {
  ThreadPool pool(1);
  auto outer = pool.submit([&pool] {
    auto inner = pool.submit([] { throw std::runtime_error("inner"); });
    EXPECT_THROW(inner.get(), std::runtime_error);
  });
  outer.get();
}

}  // namespace
}  // namespace cvr
