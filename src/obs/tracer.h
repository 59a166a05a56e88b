// Structured span tracing with Chrome trace_event JSON exposition.
//
// Spans cover the pipeline's phases — driver run, per-unit analysis,
// per-root rule checking, DSA construction, crash-state enumeration,
// dynamic runs, and thread-pool task lifecycle — and render in
// chrome://tracing / https://ui.perfetto.dev as one lane per pool worker
// (thread ids are the stable worker indices from obs::set_thread_label).
//
// Recording is a pure side channel: with obs::tracer() disarmed,
// constructing a Span costs one relaxed atomic load and builds no string.
// When armed, a Span copies its typed args (args.h) when it opens and
// records itself into obs::tracer() when it closes, into the same
// thread-keyed rings that hold flight events (flight.h);
// Recorder::write_trace() merges and time-sorts them and renders the args
// as JSON.
//
// The trace file is inherently wall-clock data and therefore volatile:
// it is never byte-compared, unlike the analysis report and the stable
// metrics section (src/obs/metrics.h).
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "obs/args.h"
#include "obs/flight.h"

namespace deepmc::obs {

/// RAII span: records [construction, destruction) on the calling thread
/// when the tracer is armed, else a no-op. Args are copied when the span
/// opens (only if the tracer is armed), so they may view temporaries.
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
  double start_ = -1;  ///< -1 = tracer disarmed at construction
  std::optional<Args> args_;  ///< engaged only while traced
};

}  // namespace deepmc::obs
