#include "support/thread_pool.h"

#include <string>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace deepmc::support {

namespace {

// All pool metrics are kVolatile: how tasks distribute over workers (and
// therefore steals, queue waits, per-worker busy time) depends on
// scheduling, never on the analyzed inputs.

obs::Counter& tasks_submitted() {
  static obs::Counter c = obs::registry().counter(
      "pool.tasks_submitted_total", obs::Volatility::kVolatile,
      "tasks handed to the pool (external + nested submissions)");
  return c;
}

obs::Counter& tasks_inline() {
  static obs::Counter c = obs::registry().counter(
      "pool.tasks_inline_total", obs::Volatility::kVolatile,
      "tasks executed inline by a zero-thread (serial) pool");
  return c;
}

obs::Counter& tasks_executed() {
  static obs::Counter c = obs::registry().counter(
      "pool.tasks_executed_total", obs::Volatility::kVolatile,
      "tasks dequeued and run to completion");
  return c;
}

obs::Counter& tasks_stolen() {
  static obs::Counter c = obs::registry().counter(
      "pool.tasks_stolen_total", obs::Volatility::kVolatile,
      "tasks taken from a sibling worker's deque");
  return c;
}

obs::Histogram& queue_wait_us() {
  static obs::Histogram h = obs::registry().histogram(
      "pool.queue_wait_us", obs::Volatility::kVolatile,
      "microseconds a task spent queued before running",
      obs::time_buckets_us());
  return h;
}

obs::Histogram& task_run_us() {
  static obs::Histogram h = obs::registry().histogram(
      "pool.task_run_us", obs::Volatility::kVolatile,
      "microseconds a task spent running", obs::time_buckets_us());
  return h;
}

/// Busy-time counter for the calling thread, named by its stable label
/// ("main", "worker-3", a serve "session-0" running an inline pool).
/// Looked up once per thread: a thread takes its label before it runs its
/// first task.
obs::Counter& worker_busy_counter() {
  thread_local obs::Counter c = obs::registry().counter(
      "pool.worker_busy_us." + obs::thread_label(), obs::Volatility::kVolatile,
      "microseconds this thread spent running pool tasks");
  return c;
}

/// Wrap a task so its queue wait, run time and span are recorded. Only
/// installed when observability is enabled at submission time.
std::function<void()> instrument_task(std::function<void()> task) {
  const auto enqueued = std::chrono::steady_clock::now();
  return [task = std::move(task), enqueued] {
    const auto started = std::chrono::steady_clock::now();
    const double wait_us =
        std::chrono::duration<double, std::micro>(started - enqueued).count();
    queue_wait_us().observe(static_cast<uint64_t>(wait_us));
    tasks_executed().inc();
    {
      obs::Span span("pool.task", "pool", {{"wait_us", wait_us}});
      task();
    }
    const double run_us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - started)
                              .count();
    task_run_us().observe(static_cast<uint64_t>(run_us));
    worker_busy_counter().inc(static_cast<uint64_t>(run_us));
  };
}

/// Identifies the pool (and worker slot) the current thread belongs to, so
/// submit() can route nested tasks to the local deque.
struct WorkerTls {
  const ThreadPool* pool = nullptr;
  size_t index = 0;
};
thread_local WorkerTls tls;

constexpr size_t kNotAWorker = static_cast<size_t>(-1);

}  // namespace

size_t ThreadPool::default_concurrency() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

size_t ThreadPool::resolve_jobs(size_t jobs) {
  return jobs == 0 ? default_concurrency() : jobs;
}

size_t ThreadPool::workers_for(size_t jobs) {
  const size_t n = resolve_jobs(jobs);
  return n <= 1 ? 0 : n;
}

ThreadPool::ThreadPool(size_t threads) {
  static obs::Gauge workers_gauge = obs::registry().gauge(
      "pool.workers", obs::Volatility::kVolatile,
      "worker threads in the most recently created pool (0 = inline)");
  workers_gauge.set(threads);
  queues_.reserve(threads);
  for (size_t i = 0; i < threads; ++i)
    queues_.push_back(std::make_unique<Queue>());
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    stop_.store(true);
  }
  sleep_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::pop_back(Queue& q, std::function<void()>& out) {
  std::lock_guard<std::mutex> lock(q.mu);
  if (q.tasks.empty()) return false;
  out = std::move(q.tasks.back());
  q.tasks.pop_back();
  return true;
}

bool ThreadPool::pop_front(Queue& q, std::function<void()>& out) {
  std::lock_guard<std::mutex> lock(q.mu);
  if (q.tasks.empty()) return false;
  out = std::move(q.tasks.front());
  q.tasks.pop_front();
  return true;
}

void ThreadPool::enqueue(std::function<void()> task) {
  if (obs::enabled()) {
    tasks_submitted().inc();
    task = instrument_task(std::move(task));
  }
  if (workers_.empty()) {
    if (obs::enabled()) tasks_inline().inc();
    task();  // inline (serial) pool
    return;
  }
  Queue* q;
  if (tls.pool == this) {
    // Nested submission: keep fork-join work local to this worker.
    q = queues_[tls.index].get();
    std::lock_guard<std::mutex> lock(q->mu);
    q->tasks.push_back(std::move(task));
  } else {
    q = &inject_;
    std::lock_guard<std::mutex> lock(q->mu);
    q->tasks.push_back(std::move(task));
  }
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    pending_.fetch_add(1, std::memory_order_relaxed);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::pop_task(std::function<void()>& out, size_t self) {
  if (self != kNotAWorker && pop_back(*queues_[self], out)) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  if (pop_front(inject_, out)) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  const size_t n = queues_.size();
  const size_t start = self == kNotAWorker ? 0 : self + 1;
  for (size_t k = 0; k < n; ++k) {
    const size_t victim = (start + k) % n;
    if (victim == self) continue;
    if (pop_front(*queues_[victim], out)) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
      if (obs::enabled()) tasks_stolen().inc();
      return true;
    }
  }
  return false;
}

bool ThreadPool::try_run_one() {
  const size_t self = tls.pool == this ? tls.index : kNotAWorker;
  std::function<void()> task;
  if (!pop_task(task, self)) return false;
  task();
  return true;
}

void ThreadPool::worker_loop(size_t index) {
  tls.pool = this;
  tls.index = index;
  // Stable worker identity for spans, per-worker metrics and TSan/trace
  // attribution: worker i is obs tid i+1 (tid 0 = the main thread).
  obs::set_thread_label(static_cast<uint32_t>(index) + 1,
                        "worker-" + std::to_string(index));
  std::function<void()> task;
  for (;;) {
    if (pop_task(task, index)) {
      task();
      task = nullptr;  // release captures before sleeping
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleep_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_relaxed) ||
             pending_.load(std::memory_order_relaxed) > 0;
    });
    // Drain remaining tasks before exiting so futures submitted just
    // before destruction still complete.
    if (stop_.load(std::memory_order_relaxed) &&
        pending_.load(std::memory_order_relaxed) == 0)
      return;
  }
}

}  // namespace deepmc::support
