// Structured span tracing with Chrome trace_event JSON exposition.
//
// Spans cover the pipeline's phases — driver run, per-unit analysis,
// per-root rule checking, DSA construction, crash-state enumeration,
// dynamic runs, and thread-pool task lifecycle — and render in
// chrome://tracing / https://ui.perfetto.dev as one lane per pool worker
// (thread ids are the stable worker indices from obs::set_thread_label).
//
// Recording is a pure side channel: with no tracer started, constructing
// a Span costs one relaxed atomic load and builds no string. When
// active, a Span copies its typed args (args.h) when it opens, and each
// thread appends completed spans to its own thread-local buffer (no locks
// on the hot path); buffers of exited threads fold into the tracer under
// a mutex, and write() merges + time-sorts everything and renders the
// args as JSON.
//
// The trace file is inherently wall-clock data and therefore volatile:
// it is never byte-compared, unlike the analysis report and the stable
// metrics section (src/obs/metrics.h).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>

#include "obs/args.h"

namespace deepmc::obs {

class Tracer {
 public:
  /// Begin collecting spans; timestamps are microseconds since start().
  void start();
  /// Stop collecting and discard everything recorded so far. Only call
  /// when recording threads are quiesced (benches between measurements).
  void stop();
  [[nodiscard]] bool active() const;

  /// Bound each thread's span buffer: once a thread has `cap` buffered
  /// spans its oldest are overwritten ring-style, so a long-lived daemon
  /// can stay traced forever and `DMRQ trace` returns the recent window.
  /// 0 (the default) keeps the historical unbounded behavior for
  /// one-shot runs. Applies to spans recorded after the call.
  void set_ring_capacity(size_t cap);

  /// Microseconds since start().
  [[nodiscard]] double now_us() const;

  /// Append one completed span for the calling thread. `name` and `cat`
  /// must have static storage duration (string literals).
  void record(const char* name, const char* cat, double ts_us, double dur_us,
              Args args = {});

  /// Emit the Chrome trace_event JSON (metadata thread names + complete
  /// "X" events sorted by timestamp). Collection stays active.
  void write(std::ostream& os);
  /// write() to `path`; returns false on IO failure.
  bool write_file(const std::string& path);

  struct Impl;  ///< public so the .cpp's thread-local buffers see it

 private:
  friend Tracer& tracer();
  Tracer();
  Impl* impl_;
};

/// The process-wide tracer (leaked, like obs::registry()).
Tracer& tracer();

/// RAII span: records [construction, destruction) on the calling thread
/// when the tracer is active, else a no-op. Args are copied when the span
/// opens (only if the tracer is active), so they may view temporaries.
class Span {
 public:
  Span(const char* name, const char* cat) : name_(name), cat_(cat) {
    open({});
  }
  template <size_t N>
  Span(const char* name, const char* cat, const Arg (&args)[N])
      : name_(name), cat_(cat) {
    static_assert(N <= Args::kMax, "more args than a span holds");
    open(args);
  }
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(std::span<const Arg> args);

  const char* name_;
  const char* cat_;
  double start_ = -1;  ///< -1 = tracer inactive at construction
  std::optional<Args> args_;  ///< engaged only while traced
};

}  // namespace deepmc::obs
