#include "layers.h"

#include <exception>

#include "analysis/trace.h"
#include "core/static_checker.h"
#include "ir/parser.h"
#include "ir/verifier.h"
#include "spans.h"

namespace perfbench {

using namespace deepmc;

StaticOutcome static_pass(const std::string& text, core::PersistencyModel model,
                          StaticTotals& totals) {
  StaticOutcome out;
  try {
    Span s("ir", "ir.parse");
    out.module = ir::parse_module(text);
  } catch (const std::exception& e) {
    out.error = std::string("parse: ") + e.what();
    return out;
  }
  {
    Span s("ir", "ir.verify");
    const auto issues = ir::verify_module(*out.module);
    if (!issues.empty()) {
      out.error = "verify: " + std::to_string(issues.size()) + " issue(s)";
      out.module.reset();
      return out;
    }
  }
  for (const auto& f : out.module->functions())
    for (const auto& bb : f->blocks())
      totals.instructions += bb->instructions().size();

  core::StaticChecker checker(*out.module, model);
  {
    Span s("analysis", "analysis.prepare");
    checker.prepare();
  }
  totals.dsa_nodes += checker.dsa().nodes().size();
  out.roots = checker.trace_roots();
  for (const ir::Function* f : out.roots) {
    {
      Span s("analysis", "analysis.trace");
      const std::vector<analysis::Trace> traces =
          checker.trace_collector().collect(*f);
      totals.traces += traces.size();
      for (const analysis::Trace& t : traces)
        totals.trace_events += t.events.size();
    }
    Span s("core", "core.check_root");
    out.result.merge(checker.check_root(*f));
  }
  {
    Span s("core", "core.fold");
    out.result.fold_empty_tx_shadows();
    out.result.sort();
  }
  totals.warnings += out.result.count();
  return out;
}

double span_ms(const std::vector<SpanRec>& spans, const std::string& name) {
  return static_cast<double>(named_ns(spans, name)) / 1e6;
}

void emit_static_metrics(Result& out, const std::vector<SpanRec>& spans,
                         const StaticTotals& totals) {
  out.metric("ir.parse_ms", span_ms(spans, "ir.parse"), "ms");
  out.metric("ir.verify_ms", span_ms(spans, "ir.verify"), "ms");
  out.metric("ir.instructions", static_cast<double>(totals.instructions),
             "count");
  out.metric("analysis.prepare_ms", span_ms(spans, "analysis.prepare"), "ms");
  out.metric("analysis.dsa_nodes", static_cast<double>(totals.dsa_nodes),
             "count");
  const double trace_ms = span_ms(spans, "analysis.trace");
  out.metric("analysis.trace_ms", trace_ms, "ms");
  out.metric("analysis.traces", static_cast<double>(totals.traces), "count");
  out.metric("analysis.trace_events", static_cast<double>(totals.trace_events),
             "count");
  // check_root collects the root's traces again before scanning them;
  // the rule check is what remains once that collection is taken off.
  out.metric("core.check_ms",
             span_ms(spans, "core.check_root") + span_ms(spans, "core.fold") -
                 trace_ms,
             "ms");
  out.metric("core.warnings", static_cast<double>(totals.warnings), "count");
}

void emit_self_times(Result& out, const std::vector<SpanRec>& spans) {
  // The nine deepmc layers, in pipeline order.
  static const char* const kLayers[] = {"ir",   "analysis", "core",
                                        "interp", "crash",  "pmem",
                                        "runtime", "load",  "serve"};
  const std::map<std::string, int64_t> self = layer_self_ns(spans);
  for (const std::string layer : kLayers) {
    const auto it = self.find(layer);
    const int64_t ns = it == self.end() ? 0 : it->second;
    out.metric("self." + layer + "_ms", static_cast<double>(ns) / 1e6, "ms");
  }
  out.metric("self.covered_share", covered_share(spans, "bench"), "ratio");
  int64_t wall = 0;
  for (const SpanRec& s : spans)
    if (s.parent < 0 && s.layer == "bench") wall += s.end_ns - s.start_ns;
  const double cost_ns = Tracer::span_cost_ns();
  out.metric("trace.overhead_pct",
             wall > 0 ? 100.0 * cost_ns * static_cast<double>(spans.size()) /
                            static_cast<double>(wall)
                      : 0.0,
             "%");
}

}  // namespace perfbench
