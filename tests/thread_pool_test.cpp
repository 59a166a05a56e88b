// Unit tests for the work-stealing thread pool: degenerate sizes, task
// ordering, exception propagation out of worker threads, nested
// fork-join via await(), and a mixed-producer stress run.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/thread_pool.h"

namespace deepmc::support {
namespace {

TEST(ThreadPool, DefaultConcurrencyIsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_concurrency(), 1u);
}

TEST(ThreadPool, JobsZeroMeansHardwareAndOneJobRunsInline) {
  const size_t hw = ThreadPool::default_concurrency();
  EXPECT_EQ(ThreadPool::resolve_jobs(0), hw);
  EXPECT_EQ(ThreadPool::resolve_jobs(3), 3u);
  EXPECT_EQ(ThreadPool::workers_for(0), hw <= 1 ? 0u : hw);
  EXPECT_EQ(ThreadPool::workers_for(1), 0u);
  EXPECT_EQ(ThreadPool::workers_for(8), 8u);
}

TEST(ThreadPool, ZeroThreadsRunsInlineOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  auto fut = pool.submit([&] {
    ran_on = std::this_thread::get_id();
    return 41 + 1;
  });
  // With no workers the task already ran, on this very thread.
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(ran_on, caller);
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ZeroThreadsPropagatesExceptions) {
  ThreadPool pool(0);
  auto fut = pool.submit(
      []() -> int { throw std::runtime_error("inline boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, SingleThreadExecutesExternalSubmissionsInFifoOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::mutex mu;
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 64; ++i)
    futs.push_back(pool.submit([&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    }));
  for (auto& f : futs) f.get();
  std::vector<int> expected(64);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ReturnsValuesThroughFutures) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 100; ++i)
    futs.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPool, ExceptionFromWorkerReachesSubmitter) {
  ThreadPool pool(2);
  auto bad = pool.submit(
      []() -> int { throw std::invalid_argument("worker boom"); });
  try {
    bad.get();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "worker boom");
  }
  // The worker that threw is still alive and serving tasks.
  auto ok = pool.submit([] { return 7; });
  EXPECT_EQ(ok.get(), 7);
}

TEST(ThreadPool, AwaitRethrowsAndKeepsPoolUsable) {
  ThreadPool pool(1);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("x"); });
  EXPECT_THROW(pool.await(std::move(bad)), std::runtime_error);
  auto ok = pool.submit([] { return 3; });
  EXPECT_EQ(pool.await(std::move(ok)), 3);
}

/// Nested fork-join from inside workers: a recursive parallel sum. Blocking
/// waits inside a classic pool would deadlock here; await() lends the
/// blocked worker back to the pool.
int parallel_sum(ThreadPool& pool, int lo, int hi) {
  if (hi - lo <= 4) {
    int s = 0;
    for (int i = lo; i < hi; ++i) s += i;
    return s;
  }
  const int mid = lo + (hi - lo) / 2;
  auto left = pool.submit([&pool, lo, mid] { return parallel_sum(pool, lo, mid); });
  const int right = parallel_sum(pool, mid, hi);
  return pool.await(std::move(left)) + right;
}

TEST(ThreadPool, NestedForkJoinDoesNotDeadlock) {
  ThreadPool pool(4);
  const int n = 1000;
  auto root = pool.submit([&pool, n] { return parallel_sum(pool, 0, n); });
  EXPECT_EQ(pool.await(std::move(root)), n * (n - 1) / 2);
}

TEST(ThreadPool, NestedForkJoinOnSingleWorker) {
  ThreadPool pool(1);
  auto root = pool.submit([&pool] { return parallel_sum(pool, 0, 200); });
  EXPECT_EQ(pool.await(std::move(root)), 200 * 199 / 2);
}

TEST(ThreadPool, ManyProducersStress) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  std::mutex futs_mu;
  std::vector<std::future<void>> futs;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 250; ++i) {
        auto f = pool.submit([&counter] {
          counter.fetch_add(1, std::memory_order_relaxed);
        });
        std::lock_guard<std::mutex> lock(futs_mu);
        futs.push_back(std::move(f));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i)
      futs.push_back(pool.submit([&ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
      }));
    // Pool destroyed while tasks may still be queued: they must all run.
  }
  for (auto& f : futs) f.get();  // none may be a broken promise
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, TryRunOneFromOutsideHelps) {
  ThreadPool pool(0);
  EXPECT_FALSE(pool.try_run_one());  // inline pool never queues
  ThreadPool real(1);
  // Flood the single worker, then help from the test thread; either way
  // every task completes.
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 32; ++i)
    futs.push_back(real.submit([i] { return i; }));
  while (real.try_run_one()) {
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futs[i].get(), i);
}

}  // namespace
}  // namespace deepmc::support
