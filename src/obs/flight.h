// Flight recorder: a fixed-capacity, lock-sharded ring buffer of recent
// structured events, kept cheap enough to leave armed in long-lived
// daemons and dumped as JSONL when something goes wrong.
//
// Where metrics (metrics.h) aggregate and the tracer (tracer.h) records
// every span, the flight recorder keeps only the *last N* coarse,
// load-bearing events — unit start/finish, degradation rung changes,
// fault-point trips, cache evictions, crash-cycle outcomes — so a
// post-mortem of a degraded (exit 66) or failed (exit 65) run can see
// what the process was doing right before the end without paying for a
// full trace. Dump sites: the CLIs on exit 65/66, `--flight-out PATH`
// on demand, and the `DMRQ flight` verb on a live `deepmc serve` daemon.
//
// Recording discipline mirrors the rest of src/obs/:
//
//  * disarmed (the default) every record() is one relaxed atomic load;
//  * armed, record() takes one shard mutex (shard picked by thread id,
//    so unrelated workers never contend) and copies the event's typed
//    args (args.h) into the oldest slot, reusing that slot's buffer, so
//    once the ring has wrapped an event allocates nothing; JSON is
//    rendered only by dump_jsonl();
//  * a global atomic sequence number orders events across shards, so the
//    merged dump is deterministic for a deterministic event sequence:
//    recording k+m events into capacity k keeps exactly the last k, in
//    order — eviction order is testable, not scheduling-dependent.
//
// Event timestamps are wall clock (ms since arm()) and therefore
// volatile; flight dumps are never byte-compared, unlike reports and the
// stable metrics section.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "obs/args.h"

namespace deepmc::obs {

struct FlightEvent {
  uint64_t seq = 0;    ///< global record order (dense, starts at 0)
  double ms = 0;       ///< wall clock, ms since arm()
  uint32_t tid = 0;    ///< obs::thread_tid() of the recording thread
  const char* kind = "";  ///< static event name ("unit.finish", ...)
  Args args;           ///< the event's typed args, may be empty
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  /// Start (or restart) recording with room for `capacity` events total
  /// across all shards. Restarting drops prior events and re-zeros the
  /// sequence counter and clock.
  void arm(size_t capacity = kDefaultCapacity);
  /// Stop recording and drop everything recorded so far.
  void disarm();
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] size_t capacity() const;

  /// Append one event. `kind` must have static storage duration (string
  /// literals); `args` are copied before the call returns. No-op (one
  /// relaxed load) when disarmed.
  void record(const char* kind) {
    if (armed()) record_args(kind, {});
  }
  template <size_t N>
  void record(const char* kind, const Arg (&args)[N]) {
    static_assert(N <= Args::kMax, "more args than a flight event holds");
    if (armed()) record_args(kind, args);
  }

  /// Merged view of the most recent <= capacity() events, in seq order.
  [[nodiscard]] std::vector<FlightEvent> events() const;

  /// One JSON object per line:
  ///   {"seq": 7, "ms": 0.412, "tid": 2, "kind": "cache.evict", ...}
  /// with a "detail" object when the event carries args.
  void dump_jsonl(std::ostream& os) const;
  /// dump_jsonl() to `path`; returns false on IO failure.
  [[nodiscard]] bool dump_file(const std::string& path) const;

  struct Impl;

 private:
  friend FlightRecorder& flight();
  FlightRecorder();
  void record_args(const char* kind, std::span<const Arg> args);

  std::atomic<bool> armed_{false};
  Impl* impl_;
};

/// The process-wide recorder (leaked, like registry() and tracer()).
FlightRecorder& flight();

}  // namespace deepmc::obs
