// Work-stealing thread pool shared by the analysis driver, benches and
// tests.
//
// Topology: one injection queue for external submissions (FIFO) plus one
// deque per worker. A worker pops its own deque from the back (LIFO — the
// freshest task has the warmest cache), drains the injection queue from
// the front, and otherwise steals from a sibling's deque front (FIFO —
// the stalest task is the one its owner will reach last). Tasks submitted
// from *inside* a worker go to that worker's own deque, so fork-join style
// nesting stays mostly thread-local.
//
// Blocking on a subtask from inside a worker would deadlock a classic
// pool; here `await()` lends the blocked thread back to the pool: it keeps
// executing pending tasks until the future it waits for is ready. The
// analysis driver uses exactly this to fan per-function work out of a
// per-module task.
//
// Degenerate sizes are first-class: a pool of 0 threads executes every
// task inline at submit() (deterministic serial mode — `deepmc --jobs 1`
// maps here), and a pool of 1 thread preserves FIFO order for external
// submissions.
//
// Exceptions thrown by a task are captured into the task's future
// (std::packaged_task semantics) and rethrown at `get()` / `await()` in
// the submitting thread; they never tear down a worker.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace deepmc::support {

class ThreadPool {
 public:
  /// std::thread::hardware_concurrency(), never less than 1.
  static size_t default_concurrency();

  /// The one reading of a `jobs` setting (DriverOptions::jobs, the tools'
  /// --jobs): 0 means default_concurrency().
  static size_t resolve_jobs(size_t jobs);
  /// Workers of the pool that runs `jobs`: resolve_jobs(jobs), except that
  /// a single job runs inline in a 0-thread pool.
  static size_t workers_for(size_t jobs);

  /// `threads == 0` creates an inline (serial) pool: submit() runs the
  /// task on the calling thread before returning.
  explicit ThreadPool(size_t threads = default_concurrency());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] size_t worker_count() const { return workers_.size(); }

  /// Schedule `fn` and return a future for its result. Thread-safe; may be
  /// called from worker threads (the task then goes to the calling
  /// worker's own deque).
  template <typename F, typename R = std::invoke_result_t<std::decay_t<F>>>
  std::future<R> submit(F&& fn) {
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// Execute one pending task on the calling thread, if any. Returns false
  /// when every queue is empty.
  bool try_run_one();

  /// Wait for `fut`, executing pending pool tasks on this thread while it
  /// is not ready (so waiting inside a worker cannot deadlock the pool).
  /// Rethrows the task's exception like std::future::get().
  template <typename R>
  R await(std::future<R> fut) {
    while (fut.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!try_run_one()) std::this_thread::yield();
    }
    return fut.get();
  }

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void enqueue(std::function<void()> task);
  bool pop_task(std::function<void()>& out, size_t self);
  void worker_loop(size_t index);

  static bool pop_back(Queue& q, std::function<void()>& out);
  static bool pop_front(Queue& q, std::function<void()>& out);

  std::vector<std::unique_ptr<Queue>> queues_;  ///< one per worker
  Queue inject_;                                ///< external submissions
  std::vector<std::thread> workers_;

  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<size_t> pending_{0};  ///< queued, not yet dequeued
  std::atomic<bool> stop_{false};
};

}  // namespace deepmc::support
