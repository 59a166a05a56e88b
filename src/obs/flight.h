// Event recorder: the one store behind flight events and trace spans.
//
// obs::flight() and obs::tracer() are two instances of one class. The
// flight recorder keeps only the *last N* coarse, load-bearing events —
// unit start/finish, degradation rung changes, fault-point trips, cache
// evictions, crash-cycle outcomes — so a post-mortem of a degraded (exit
// 66) or failed (exit 65) run can see what the process was doing right
// before the end without paying for a full trace. Dump sites: the CLIs on
// exit 65/66, `--flight-out PATH` on demand, and the `DMRQ flight` verb on
// a live `deepmc serve` daemon. The tracer receives every obs::Span
// (tracer.h): unbounded for a one-shot `--trace-out` run, the newest N
// for a daemon started with `--trace-ring N`.
//
// Recording discipline mirrors the rest of src/obs/:
//
//  * disarmed (the default) every record() is one relaxed atomic load;
//  * armed, record() takes one shard mutex (obs::shard_of the thread id,
//    so threads on different shards never contend) and copies the event's
//    typed args (args.h) into the next slot of that shard's ring. arm()
//    and disarm() drop the events but keep the slots, and an overwritten
//    slot reuses its args buffer, so once a ring has been filled an event
//    allocates nothing; JSON is rendered only by the two dumps;
//  * a global atomic sequence number orders events across shards, so the
//    merged view is deterministic for a deterministic event sequence:
//    recording k+m events into capacity k keeps exactly the last k, in
//    order — eviction order is testable, not scheduling-dependent.
//
// Timestamps are wall clock (since arm()) and therefore volatile; dumps
// are never byte-compared, unlike reports and the stable metrics section.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/args.h"
#include "obs/metrics.h"

namespace deepmc::obs {

/// One recorded event: a flight event (no duration, no category) or a
/// completed span.
struct Event {
  uint64_t seq = 0;       ///< record order since arm() (dense, from 0)
  double ts_us = 0;       ///< start, microseconds since arm()
  double dur_us = 0;      ///< a span's length; 0 for a flight event
  uint32_t tid = 0;       ///< obs::thread_tid() of the recording thread
  const char* name = "";  ///< static event or span name ("unit.finish")
  const char* cat = "";   ///< static span category; "" for a flight event
  Args args;              ///< the event's typed args, may be empty
};

class Recorder {
 public:
  static constexpr size_t kDefaultCapacity = 4096;
  static constexpr size_t kUnbounded = 0;

  /// Start (or restart) recording, keeping the newest `capacity` events
  /// across all threads (kUnbounded keeps every one). Restarting drops
  /// prior events and re-zeros the sequence counter and clock.
  void arm(size_t capacity = kDefaultCapacity);
  /// Stop recording and drop everything recorded so far.
  void disarm();
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_relaxed);
  }
  /// Microseconds since arm().
  [[nodiscard]] double now_us() const;

  /// Append one event stamped now. `name` must have static storage
  /// duration (string literals); `args` are copied before the call
  /// returns. No-op (one relaxed load) when disarmed.
  void record(const char* name) {
    if (armed()) record_args(name, {});
  }
  template <size_t N>
  void record(const char* name, const Arg (&args)[N]) {
    static_assert(N <= Args::kMax, "more args than an event holds");
    if (armed()) record_args(name, args);
  }
  /// Append one completed span for the calling thread; `name` and `cat`
  /// must have static storage duration.
  void record(const char* name, const char* cat, double ts_us, double dur_us,
              Args&& args = {});

  /// Merged view of the most recent <= capacity events, in seq order.
  [[nodiscard]] std::vector<Event> events() const;

  /// Flight JSONL, one object per line:
  ///   {"seq": 7, "ms": 0.412, "tid": 2, "kind": "cache.evict", ...}
  /// with a "detail" object when the event carries args.
  void dump_jsonl(std::ostream& os) const;
  /// dump_jsonl() to `path`; returns false on IO failure.
  [[nodiscard]] bool dump_file(const std::string& path) const;

  /// Chrome trace_event JSON: thread-name metadata, then one complete "X"
  /// event per recorded event, sorted by start time (tracer.cpp).
  void write_trace(std::ostream& os) const;
  /// write_trace() to `path`; returns false on IO failure.
  [[nodiscard]] bool write_trace_file(const std::string& path) const;

 private:
  friend Recorder& flight();
  friend Recorder& tracer();
  Recorder() = default;

  // One ring per shard of the thread-keyed rule (obs::shard_of in
  // metrics.h), which the metrics registry uses too. Pool workers and
  // serve sessions have tids of their own, so they share a ring only when
  // their tids are equal modulo kShards.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<Event> slots;  ///< grown on demand, kept across arm()
    size_t n = 0;              ///< live events: slots [0, n)
    size_t next = 0;           ///< slot the next event overwrites
  };

  void record_args(const char* name, std::span<const Arg> args);
  /// Locks the calling thread's shard and fills its next slot's header;
  /// the slot is null when the recorder was disarmed concurrently.
  std::pair<std::unique_lock<std::mutex>, Event*> claim(const char* name,
                                                        const char* cat,
                                                        double ts_us,
                                                        double dur_us);

  std::atomic<bool> armed_{false};
  std::atomic<size_t> capacity_{0};
  std::atomic<std::chrono::steady_clock::time_point> t0_{};
  // Every record bumps seq_: on a line of its own, it does not evict the
  // read-mostly fields above from the cores that check armed().
  alignas(64) std::atomic<uint64_t> seq_{0};
  std::array<Shard, kShards> shards_;
};

/// The process-wide recorders (leaked, like registry()): flight events,
/// and the spans of obs::Span.
Recorder& flight();
Recorder& tracer();

}  // namespace deepmc::obs
