// The traced decomposition shared by the workloads: the static path
// (ir -> analysis -> core) called one public function at a time under
// spans, and the rollup of recorded spans into per-layer metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_math.h"
#include "core/model.h"
#include "core/report.h"
#include "ir/module.h"
#include "report.h"

namespace perfbench {

/// Counts the static pass accumulates (times come from the spans).
struct StaticTotals {
  uint64_t instructions = 0;
  uint64_t dsa_nodes = 0;
  uint64_t traces = 0;
  uint64_t trace_events = 0;
  uint64_t warnings = 0;
};

/// What one static pass produced; `module` is null when the text did not
/// parse or verify (then `error` says why).
struct StaticOutcome {
  std::unique_ptr<deepmc::ir::Module> module;
  std::vector<const deepmc::ir::Function*> roots;  ///< trace roots
  deepmc::core::CheckResult result;                ///< folded and sorted
  std::string error;
};

/// ir::parse_module -> ir::verify_module -> StaticChecker::prepare ->
/// per root TraceCollector::collect and StaticChecker::check_root, each
/// under its own span.
StaticOutcome static_pass(const std::string& text,
                          deepmc::core::PersistencyModel model,
                          StaticTotals& totals);

/// ir.*, analysis.* and core.check_ms / core.warnings from the spans and
/// counts of the static passes.
void emit_static_metrics(Result& out, const std::vector<SpanRec>& spans,
                         const StaticTotals& totals);

/// self.<layer>_ms for every layer, self.covered_share (the share of the
/// benchmark's enclosing "bench" spans some layer span covers) and
/// trace.overhead_pct (spans recorded times the measured cost of one
/// span, over the same time).
void emit_self_times(Result& out, const std::vector<SpanRec>& spans);

/// Total duration of spans named `name`, in milliseconds.
double span_ms(const std::vector<SpanRec>& spans, const std::string& name);

}  // namespace perfbench
