// In-memory span recorder for the traced run. The benchmark wraps a Span
// around each call it makes into a deepmc layer; spans nest through a
// per-thread stack, stay in memory, and are rolled up into per-layer self
// times when the run ends. With tracing off a Span is two branches.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_math.h"

namespace perfbench {

class Tracer {
 public:
  /// Turn recording on or off for the whole process.
  static void set_enabled(bool on);
  [[nodiscard]] static bool enabled();

  /// Every span recorded so far, in opening order (a parent's index is
  /// below its children's), and clear the recorder. Call only when no
  /// span is open.
  [[nodiscard]] static std::vector<SpanRec> take();

  /// Nanoseconds on the span clock.
  [[nodiscard]] static int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Measured cost of opening and closing one span, in nanoseconds.
  [[nodiscard]] static double span_cost_ns();
};

/// RAII span. `layer` is one of the deepmc module names (ir, analysis,
/// core, interp, crash, pmem, runtime, load, serve) or "bench" for the
/// benchmark's own enclosing spans.
class Span {
 public:
  Span(const char* layer, const char* name);
  /// A span whose parent was opened on another thread (`parent` is that
  /// span's id(); -1 makes a root).
  Span(const char* layer, const char* name, int64_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Record index of this span, -1 when tracing is off.
  [[nodiscard]] int64_t id() const { return id_; }

 private:
  const char* layer_;
  const char* name_;
  int64_t start_;
  int64_t id_ = -1;    ///< record index, -1 when not recording
  int64_t prev_ = -1;  ///< this thread's innermost open span before us
};

}  // namespace perfbench
