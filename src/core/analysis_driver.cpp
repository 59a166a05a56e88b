#include "core/analysis_driver.h"

#include <chrono>
#include <fstream>
#include <ostream>
#include <sstream>

#include <map>
#include <set>

#include "analysis/dsg_printer.h"
#include "analysis/trace.h"
#include "core/fixit.h"
#include "corpus/corpus.h"
#include "crash/crashsim.h"
#include "interp/instrumenter.h"
#include "interp/interp.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "pmem/pool.h"
#include "runtime/dynamic_checker.h"
#include "support/budget.h"
#include "support/faultpoint.h"
#include "support/str.h"
#include "support/thread_pool.h"

namespace deepmc::core {

namespace {

// Driver totals are sums over units of deterministic per-unit results;
// they are identical across runs and --jobs values (kStable).

obs::Counter& units_total() {
  static obs::Counter c = obs::registry().counter(
      "driver.units_total", obs::Volatility::kStable, "units analyzed");
  return c;
}

obs::Counter& units_failed() {
  static obs::Counter c = obs::registry().counter(
      "driver.units_failed_total", obs::Volatility::kStable,
      "units whose build/verify step failed");
  return c;
}

obs::Counter& warnings_total() {
  static obs::Counter c = obs::registry().counter(
      "driver.warnings_total", obs::Volatility::kStable,
      "static warnings after folding and suppression");
  return c;
}

obs::Counter& warnings_suppressed() {
  static obs::Counter c = obs::registry().counter(
      "driver.warnings_suppressed_total", obs::Volatility::kStable,
      "warnings removed by the suppression database");
  return c;
}

obs::Counter& dynamic_findings() {
  static obs::Counter c = obs::registry().counter(
      "driver.dynamic_findings_total", obs::Volatility::kStable,
      "rt.* findings from --dynamic runs");
  return c;
}

obs::Counter& functions_checked() {
  static obs::Counter c = obs::registry().counter(
      "driver.functions_checked_total", obs::Volatility::kStable,
      "functions checked, summed over units (Table 9 accounting)");
  return c;
}

obs::Counter& traces_checked() {
  static obs::Counter c = obs::registry().counter(
      "driver.traces_checked_total", obs::Volatility::kStable,
      "traces checked, summed over units (Table 9 accounting)");
  return c;
}

obs::Counter& validations_confirmed() {
  static obs::Counter c = obs::registry().counter(
      "crash.validations_confirmed_total", obs::Volatility::kStable,
      "static warnings confirmed by a crash-image witness");
  return c;
}

obs::Counter& validations_not_reproduced() {
  static obs::Counter c = obs::registry().counter(
      "crash.validations_not_reproduced_total", obs::Volatility::kStable,
      "executed warnings with no misbehaving reachable image");
  return c;
}

obs::Counter& validations_skipped() {
  static obs::Counter c = obs::registry().counter(
      "crash.validations_skipped_total", obs::Volatility::kStable,
      "warnings the enumeration could not judge");
  return c;
}

// Resilience counters register lazily — only a run that actually degrades
// a unit or trips a budget creates them, so default-run metrics snapshots
// (and their goldens) are unchanged.

obs::Counter& units_degraded() {
  static obs::Counter c = obs::registry().counter(
      "driver.units_degraded_total", obs::Volatility::kStable,
      "units that completed on a tightened ladder rung");
  return c;
}

void count_budget_trip(const std::string& stage) {
  // Step-budget trips are deterministic; the wall-clock watchdog is not.
  const bool wall = stage == "wall-clock";
  obs::registry()
      .counter("driver.budget_exhausted." + stage,
               wall ? obs::Volatility::kVolatile : obs::Volatility::kStable,
               "budget trips at stage " + stage)
      .inc();
}

}  // namespace

const char* validation_name(Validation v) {
  switch (v) {
    case Validation::kConfirmed:
      return "confirmed";
    case Validation::kNotReproduced:
      return "not-reproduced";
    case Validation::kSkipped:
      return "skipped";
  }
  return "skipped";
}

const char* unit_status_name(UnitStatus s) {
  switch (s) {
    case UnitStatus::kOk:
      return "ok";
    case UnitStatus::kDegraded:
      return "degraded";
    case UnitStatus::kFailed:
      return "failed";
  }
  return "failed";
}

std::vector<LadderRung> degradation_ladder(const DriverOptions& opts) {
  // Every bound tightens monotonically down the ladder (the monotonicity
  // test in tests/resilience_test.cpp pins this), and the final rung drops
  // the optional stages so a budget that does not depend on trace bounds
  // (e.g. enum.images) cannot trip twice in a row for the same reason.
  auto tighten = [](analysis::TraceOptions t) {
    t.max_loop_visits = std::max(1, t.max_loop_visits / 2);
    t.max_recursion = std::max(1, t.max_recursion / 2);
    t.max_paths = std::max<size_t>(1, t.max_paths / 4);
    t.max_callee_paths = std::max<size_t>(1, t.max_callee_paths / 2);
    return t;
  };

  std::vector<LadderRung> ladder;
  LadderRung full;
  full.name = "full";
  full.trace = opts.trace;
  full.max_subset_bits = 10;
  full.run_crashsim = opts.crashsim;
  full.run_dynamic = opts.dynamic_run;
  ladder.push_back(full);

  LadderRung tightened = full;
  tightened.name = "tightened";
  tightened.trace = tighten(full.trace);
  tightened.max_subset_bits = 6;
  ladder.push_back(tightened);

  LadderRung static_only = tightened;
  static_only.name = "static-only";
  static_only.trace = tighten(tightened.trace);
  static_only.max_subset_bits = 0;
  static_only.run_crashsim = false;
  static_only.run_dynamic = false;
  static_only.tolerate_root_budget = true;
  ladder.push_back(static_only);
  return ladder;
}

namespace {

/// Recovery-oracle framework for a unit, inferred from the corpus naming
/// convention ("pmdk/btree_map" and so on). Unknown prefixes get no oracle:
/// images are still enumerated, recovery replay is skipped.
std::string framework_for_unit(const std::string& name) {
  const size_t slash = name.find('/');
  const std::string prefix = name.substr(0, slash);
  if (prefix == "pmdk") return "pmdk_mini";
  if (prefix == "pmfs") return "pmfs_mini";
  if (prefix == "mnemosyne") return "mnemosyne_mini";
  if (prefix == "nvmdirect") return "nvmdirect_mini";
  return "";
}

}  // namespace

AnalysisUnit make_source_unit(std::string name, std::string source,
                              std::optional<PersistencyModel> model) {
  AnalysisUnit u;
  u.name = std::move(name);
  u.build = [source = std::move(source), model] {
    DEEPMC_FAULTPOINT("parser.read");
    BuiltUnit b;
    b.model = model;
    try {
      b.module = ir::parse_module(source);
    } catch (const ir::ParseError& e) {
      b.error = e.what();
      b.error_reason = "parse-error";
    }
    return b;
  };
  return u;
}

AnalysisUnit make_file_unit(std::string path,
                            std::optional<PersistencyModel> model) {
  AnalysisUnit u;
  u.name = path;
  u.build = [path = std::move(path), model] {
    DEEPMC_FAULTPOINT("parser.read");
    BuiltUnit b;
    b.model = model;
    std::ifstream f(path);
    if (!f) {
      // Expected input problem: per-unit data, not an exception — the
      // batch keeps going and this unit alone is reported failed.
      b.error = "cannot open " + path;
      b.error_reason = "input-error";
      return b;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    try {
      b.module = ir::parse_module(buf.str());
    } catch (const ir::ParseError& e) {
      b.error = e.what();
      b.error_reason = "parse-error";
    }
    return b;
  };
  return u;
}

AnalysisUnit make_corpus_unit(std::string name) {
  AnalysisUnit u;
  u.name = name;
  u.build = [name = std::move(name)] {
    corpus::CorpusModule cm = corpus::build_module(name);
    BuiltUnit b;
    b.module = std::move(cm.module);
    b.model = corpus::framework_model(cm.framework);
    return b;
  };
  return u;
}

// ===========================================================================
// Report rendering
// ===========================================================================

size_t Report::total_warnings() const {
  size_t n = 0;
  for (const UnitReport& u : units_) n += u.warning_count();
  return n;
}

bool Report::any_failed() const {
  for (const UnitReport& u : units_)
    if (u.failed) return true;
  return false;
}

bool Report::any_degraded() const {
  for (const UnitReport& u : units_)
    if (u.status == UnitStatus::kDegraded) return true;
  return false;
}

int run_exit_code(bool any_failed, bool any_degraded, uint64_t warnings) {
  if (any_failed) return 65;
  if (any_degraded) return 66;
  return static_cast<int>(std::min<uint64_t>(warnings, 63));
}

int Report::exit_code() const {
  return run_exit_code(any_failed(), any_degraded(), total_warnings());
}

void Report::print_text(std::ostream& os) const {
  for (const UnitReport& u : units_) os << u.text;
}

std::string Report::text() const {
  std::ostringstream os;
  print_text(os);
  return os.str();
}

void Report::print_json(std::ostream& os, bool include_timing) const {
  // v3 is backward-compatible with v2: it adds the per-unit "status"
  // string, the "degraded" object on degraded units, and a
  // machine-readable "reason" on failed units. Everything a v2 consumer
  // read is still present with the same shape.
  os << "{\n";
  os << "  \"schema\": \"deepmc-report-v3\",\n";
  os << "  \"total_warnings\": " << total_warnings() << ",\n";
  os << "  \"units\": [";
  for (size_t i = 0; i < units_.size(); ++i) {
    const UnitReport& u = units_[i];
    os << (i ? ",\n" : "\n");
    os << "    {\n";
    os << "      \"name\": " << json_quote(u.name) << ",\n";
    os << "      \"status\": " << json_quote(unit_status_name(u.status))
       << ",\n";
    if (u.failed) {
      os << "      \"failed\": true,\n";
      if (!u.fail_reason.empty())
        os << "      \"reason\": " << json_quote(u.fail_reason) << ",\n";
      os << "      \"error\": " << json_quote(u.error) << "\n";
      os << "    }";
      continue;
    }
    os << "      \"model\": " << json_quote(model_name(u.model)) << ",\n";
    os << "      \"failed\": false,\n";
    os << "      \"warning_count\": " << u.warning_count() << ",\n";
    os << "      \"suppressed\": " << u.suppressed << ",\n";
    if (u.status == UnitStatus::kDegraded) {
      const DegradedInfo& d = u.degraded;
      os << "      \"degraded\": {";
      os << "\"rung\": " << json_quote(d.rung);
      os << ", \"reason\": " << json_quote(d.reason);
      os << ", \"skipped_stages\": [";
      for (size_t s = 0; s < d.skipped_stages.size(); ++s)
        os << (s ? ", " : "") << json_quote(d.skipped_stages[s]);
      os << "], \"roots_budget_exhausted\": [";
      for (size_t r = 0; r < d.roots_budget_exhausted.size(); ++r)
        os << (r ? ", " : "") << json_quote(d.roots_budget_exhausted[r]);
      os << "]},\n";
    }
    os << "      \"warnings\": [";
    const auto& ws = u.result.warnings();
    for (size_t w = 0; w < ws.size(); ++w) {
      os << (w ? ",\n" : "\n");
      std::string wj = to_json(ws[w]);
      if (u.crashsim.ran && w < u.crashsim.validations.size()) {
        wj.pop_back();  // splice validation into the closing brace
        wj += ", \"validation\": ";
        wj += json_quote(validation_name(u.crashsim.validations[w]));
        wj += "}";
      }
      os << "        " << wj;
    }
    os << (ws.empty() ? "" : "\n      ") << "],\n";
    os << "      \"dynamic_warnings\": [";
    for (size_t d = 0; d < u.dynamic.size(); ++d) {
      const DynamicFinding& f = u.dynamic[d];
      os << (d ? ",\n" : "\n");
      os << "        {\"rule\": " << json_quote(f.rule)
         << ", \"file\": " << json_quote(f.loc.file)
         << ", \"line\": " << f.loc.line
         << ", \"message\": " << json_quote(f.message) << "}";
    }
    os << (u.dynamic.empty() ? "" : "\n      ") << "],\n";
    os << "      \"stats\": {";
    os << "\"trace_roots\": " << u.stats.trace_roots;
    os << ", \"functions_checked\": " << u.stats.functions_checked;
    os << ", \"traces_checked\": " << u.stats.traces_checked;
    os << ", \"dsa_nodes\": " << u.stats.dsa_nodes;
    os << ", \"persistent_dsa_nodes\": " << u.stats.persistent_dsa_nodes;
    if (include_timing)
      os << ", \"elapsed_ms\": "
         << strformat("%.3f", u.stats.elapsed_ms);
    os << "}";
    if (u.crashsim.ran) {
      const CrashSimSummary& cs = u.crashsim;
      os << ",\n      \"crashsim\": {\n";
      os << "        \"framework\": " << json_quote(cs.framework) << ",\n";
      os << "        \"confirmed\": " << cs.confirmed << ",\n";
      os << "        \"not_reproduced\": " << cs.not_reproduced << ",\n";
      os << "        \"skipped\": " << cs.skipped << ",\n";
      os << "        \"roots\": [";
      for (size_t r = 0; r < cs.roots.size(); ++r) {
        const CrashSimRootSummary& rs = cs.roots[r];
        os << (r ? ",\n" : "\n");
        os << "          {\"root\": " << json_quote(rs.root)
           << ", \"executed\": " << (rs.executed ? "true" : "false");
        if (!rs.executed) {
          os << ", \"error\": " << json_quote(rs.error) << "}";
          continue;
        }
        os << ", \"crash_points\": " << rs.crash_points
           << ", \"images\": " << rs.images
           << ", \"witnesses\": " << rs.witnesses
           << ", \"images_consistent\": " << rs.images_consistent
           << ", \"images_inconsistent\": " << rs.images_inconsistent
           << ", \"images_skipped\": " << rs.images_skipped
           << ", \"pruning_ratio\": " << strformat("%.4f", rs.pruning_ratio)
           << "}";
      }
      os << (cs.roots.empty() ? "" : "\n        ") << "]\n";
      os << "      }";
    }
    os << "\n";
    os << "    }";
  }
  os << (units_.empty() ? "" : "\n  ") << "]\n";
  os << "}\n";
}

std::string Report::json(bool include_timing) const {
  std::ostringstream os;
  print_json(os, include_timing);
  return os.str();
}

Report Report::from_units(std::vector<UnitReport> units) {
  Report r;
  r.units_ = std::move(units);
  return r;
}

// ===========================================================================
// AnalysisDriver
// ===========================================================================

AnalysisDriver::AnalysisDriver(DriverOptions opts) : opts_(std::move(opts)) {}

namespace {

/// Awaits every pending future of `futs` (the tasks reference the caller's
/// frame, so none may outlive it) and hands task i's result to take(i, r).
/// A budget trip that tolerate(i) accepts is dropped. Of the rest, the
/// first error that is neither a budget trip nor a cancellation is
/// rethrown, else the first budget trip, else the first cancellation; the
/// first two cancel the siblings still running, whose CancelledError
/// echoes lose to them.
template <typename T, typename Take, typename Tolerate>
void await_all(support::ThreadPool& pool, std::vector<std::future<T>>& futs,
               const support::CancelToken& cancel, Take take,
               Tolerate tolerate) {
  std::exception_ptr budget_ex, cancel_ex, other_ex;
  for (size_t i = 0; i < futs.size(); ++i) {
    if (!futs[i].valid()) continue;
    try {
      take(i, pool.await(std::move(futs[i])));
    } catch (const support::BudgetExceeded&) {
      if (tolerate(i)) continue;
      if (!budget_ex) {
        budget_ex = std::current_exception();
        cancel.cancel("sibling budget exhausted");
      }
    } catch (const support::CancelledError&) {
      if (!cancel_ex) cancel_ex = std::current_exception();
    } catch (...) {
      if (!other_ex) {
        other_ex = std::current_exception();
        cancel.cancel("sibling subtask failed");
      }
    }
  }
  if (other_ex) std::rethrow_exception(other_ex);
  if (budget_ex) std::rethrow_exception(budget_ex);
  if (cancel_ex) std::rethrow_exception(cancel_ex);
}

/// Structured build/verify failure thrown inside run_attempt and
/// classified by analyze_unit; carries the machine-readable reason.
class UnitInputError : public std::runtime_error {
 public:
  UnitInputError(const std::string& msg, std::string reason)
      : std::runtime_error(msg), reason_(std::move(reason)) {}

  [[nodiscard]] const std::string& reason() const { return reason_; }

 private:
  std::string reason_;
};

}  // namespace

void AnalysisDriver::run_attempt(const AnalysisUnit& unit,
                                 support::ThreadPool& pool,
                                 const LadderRung& rung,
                                 support::FaultScope& faults,
                                 const support::CancelToken& cancel,
                                 UnitReport& out,
                                 std::vector<std::string>* roots_exhausted)
    const {
  // This thread analyzes the unit; its fault scope is active here and
  // inside every subtask lambda below (pool.await may run other units'
  // subtasks inline — their own activations nest and restore).
  support::FaultActivation activation(&faults);

  BuiltUnit built = [&] {
    obs::Span build_span("unit.build", "driver", {{"unit", unit.name}});
    return unit.build();
  }();
  if (!built.error.empty() || !built.module)
    throw UnitInputError(
        built.error.empty() ? "build produced no module" : built.error,
        built.error_reason.empty() ? "input-error" : built.error_reason);
  ir::Module& module = *built.module;
  try {
    ir::verify_or_throw(module);
  } catch (const std::exception& e) {
    throw UnitInputError(e.what(), "verify-error");
  }
  out.model = built.model.value_or(opts_.model);

  std::ostringstream os;
  os << strformat("== %s (model: %s) ==\n", unit.name.c_str(),
                  model_name(out.model));

  StaticChecker checker(module, out.model,
                        {.trace = rung.trace,
                         .field_sensitive = opts_.field_sensitive,
                         .dsa_step_budget = opts_.budgets.dsa_steps,
                         .trace_step_budget = opts_.budgets.trace_steps,
                         .cancel = cancel});
  checker.prepare();
  const std::vector<const ir::Function*> roots = checker.trace_roots();

  // Fan the per-root checks out; merging in root order keeps the result
  // identical to a serial StaticChecker::run().
  //
  // On the full rung a root cache (the serve daemon's dirty-cone path)
  // may answer some roots; each answer merges in its root's position of
  // the same order, so a cached merge is byte-equivalent to a fresh one.
  RootCache* const root_cache =
      rung.name == "full" ? opts_.root_cache : nullptr;
  std::vector<std::optional<CheckResult>> cached =
      root_cache != nullptr
          ? root_cache->lookup(module, checker.dsa().callgraph(), roots)
          : std::vector<std::optional<CheckResult>>(roots.size());
  std::vector<std::optional<CheckResult>> fresh(roots.size());
  std::vector<std::future<CheckResult>> futs(roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    if (cached[i]) continue;
    const ir::Function* f = roots[i];
    futs[i] = pool.submit([&checker, f, &faults] {
      support::FaultActivation act(&faults);
      return checker.check_root(*f);
    });
  }
  await_all(
      pool, futs, cancel,
      [&](size_t i, CheckResult r) { fresh[i] = std::move(r); },
      [&](size_t i) {
        // Final rung: this root contributes nothing, the unit survives
        // with partial results. Deterministic — the meter was per-root.
        if (!rung.tolerate_root_budget || roots_exhausted == nullptr)
          return false;
        roots_exhausted->push_back(roots[i]->name());
        return true;
      });
  CheckResult result;
  for (size_t i = 0; i < roots.size(); ++i)
    if (const std::optional<CheckResult>& r = cached[i] ? cached[i] : fresh[i])
      result.merge(*r);
  result.fold_empty_tx_shadows();
  result.sort();

  if (roots_exhausted != nullptr)
    for (const std::string& name : *roots_exhausted)
      os << strformat(
          "note: root @%s: trace budget exhausted; no results for this "
          "root\n",
          name.c_str());

  out.stats.trace_roots = roots.size();
  out.stats.functions_checked = result.functions_checked;
  out.stats.traces_checked = result.traces_checked;
  out.stats.dsa_nodes = checker.dsa().nodes().size();
  out.stats.persistent_dsa_nodes = checker.dsa().persistent_node_count();
  functions_checked().inc(result.functions_checked);
  traces_checked().inc(result.traces_checked);

  if (opts_.dump_dsg) {
    os << "-- persistent DSG --\n";
    analysis::print_dsg(checker.dsa(), os);
  }
  if (opts_.dump_traces) {
    // Reuses the checker's collector instead of rebuilding DSA + traces.
    const analysis::TraceCollector& collector = checker.trace_collector();
    os << "-- traces --\n";
    for (const auto& f : module.functions()) {
      if (f->is_declaration()) continue;
      auto traces = collector.collect(*f);
      size_t persist_events = 0;
      for (const auto& t : traces)
        persist_events += t.persistent_event_count();
      os << strformat("  @%s: %zu path(s), %zu persistent event(s)\n",
                      f->name().c_str(), traces.size(), persist_events);
    }
  }

  if (opts_.suppressions.size() > 0) {
    auto stats = opts_.suppressions.apply(result);
    out.suppressed = stats.suppressed;
    warnings_suppressed().inc(stats.suppressed);
    if (stats.suppressed)
      os << strformat("(%zu warning(s) suppressed by the database)\n",
                      stats.suppressed);
    for (size_t idx : stats.stale)
      os << strformat("note: stale suppression: %s\n",
                      opts_.suppressions.entries()[idx].str().c_str());
  }
  for (const Warning& w : result.warnings())
    os << (opts_.suggest ? warning_with_fix(w) : w.str()) << "\n";

  warnings_total().inc(result.count());

  if (rung.run_crashsim) {
    obs::Span crashsim_span("unit.crashsim", "crash", {{"unit", unit.name}});
    out.crashsim.ran = true;
    out.crashsim.framework = framework_for_unit(unit.name);

    // Zero-argument defined roots can be executed as-is; each gets its
    // own pool + recorder + enumeration, fanned across the worker pool
    // and merged in root order for deterministic output.
    std::vector<const ir::Function*> sim_roots;
    for (const ir::Function* f : roots)
      if (!f->is_declaration() && f->arg_count() == 0)
        sim_roots.push_back(f);

    crash::CrashSimOptions copts;
    copts.model = out.model;
    copts.framework = out.crashsim.framework;
    copts.max_subset_bits = rung.max_subset_bits;
    copts.image_budget = opts_.budgets.enum_images;
    copts.interp_step_budget = opts_.budgets.interp_steps;
    copts.cancel = cancel;
    std::vector<std::future<crash::RootCrashSim>> cfuts;
    cfuts.reserve(sim_roots.size());
    for (const ir::Function* f : sim_roots)
      cfuts.push_back(pool.submit([&module, f, copts, &faults] {
        support::FaultActivation act(&faults);
        return crash::simulate_root(module, *f, copts);
      }));
    std::vector<crash::RootCrashSim> sims(sim_roots.size());
    await_all(
        pool, cfuts, cancel,
        [&](size_t i, crash::RootCrashSim sim) { sims[i] = std::move(sim); },
        [](size_t) { return false; });

    os << "-- crash-state enumeration --\n";
    std::vector<const ir::Function*> executed_roots;
    std::set<SourceLoc> witness_locs;
    std::map<SourceLoc, std::string> witness_rule;  // first rule per loc
    for (size_t i = 0; i < sims.size(); ++i) {
      const crash::RootCrashSim& sim = sims[i];
      CrashSimRootSummary rs;
      rs.root = sim.root;
      rs.executed = sim.executed;
      rs.error = sim.error;
      rs.crash_points = sim.stats.crash_points;
      rs.images = sim.stats.images;
      rs.witnesses = sim.witnesses.size();
      rs.images_consistent = sim.images_consistent;
      rs.images_inconsistent = sim.images_inconsistent;
      rs.images_skipped = sim.images_skipped;
      rs.pruning_ratio = sim.stats.pruning_ratio();
      out.crashsim.roots.push_back(rs);
      if (!sim.executed) {
        os << strformat("  root @%s: not executed (%s)\n",
                        sim.root.c_str(), sim.error.c_str());
        continue;
      }
      executed_roots.push_back(sim_roots[i]);
      os << strformat(
          "  root @%s: %llu crash point(s), %llu image(s), %zu "
          "witness(es), pruning %.1f%%\n",
          sim.root.c_str(),
          static_cast<unsigned long long>(sim.stats.crash_points),
          static_cast<unsigned long long>(sim.stats.images),
          sim.witnesses.size(), 100.0 * rs.pruning_ratio);
      for (const crash::Witness& w : sim.witnesses) {
        for (const SourceLoc& loc : w.culprits) {
          witness_locs.insert(loc);
          witness_rule.emplace(loc, w.rule);
        }
      }
    }

    const std::set<const ir::Function*> executed =
        checker.dsa().callgraph().closure(executed_roots);
    for (const Warning& w : result.warnings()) {
      Validation v;
      if (w.bug_class() == BugClass::kPerformance)
        v = Validation::kSkipped;  // perf findings have no crash image
      else if (!executed.count(module.find_function(w.function)))
        v = Validation::kSkipped;  // never executed by any root
      else if (witness_locs.count(w.loc))
        v = Validation::kConfirmed;
      else
        v = Validation::kNotReproduced;
      out.crashsim.validations.push_back(v);
      switch (v) {
        case Validation::kConfirmed:
          ++out.crashsim.confirmed;
          os << strformat("  %s: validation confirmed [%s]\n",
                          w.loc.str().c_str(),
                          witness_rule.at(w.loc).c_str());
          break;
        case Validation::kNotReproduced:
          ++out.crashsim.not_reproduced;
          os << strformat("  %s: validation not-reproduced\n",
                          w.loc.str().c_str());
          break;
        case Validation::kSkipped:
          ++out.crashsim.skipped;
          os << strformat("  %s: validation skipped\n",
                          w.loc.str().c_str());
          break;
      }
    }
    os << strformat(
        "validation: %zu confirmed, %zu not-reproduced, %zu skipped\n",
        out.crashsim.confirmed, out.crashsim.not_reproduced,
        out.crashsim.skipped);
    validations_confirmed().inc(out.crashsim.confirmed);
    validations_not_reproduced().inc(out.crashsim.not_reproduced);
    validations_skipped().inc(out.crashsim.skipped);
  }

  if (rung.run_dynamic && module.find_function("main")) {
    obs::Span dynamic_span("unit.dynamic", "runtime", {{"unit", unit.name}});
    // Reuse the checker's DSA for instrumentation rather than running a
    // second, identical analysis over the module.
    interp::instrument_module(module, checker.dsa());
    pmem::PmPool pm(1 << 24, pmem::LatencyModel::zero());
    rt::RuntimeChecker rt(out.model);
    interp::Interpreter::Options iopts;
    const bool budget_limits =
        interp::apply_step_budget(iopts, opts_.budgets.interp_steps);
    iopts.cancel = cancel;
    interp::Interpreter interp(module, pm, &rt, iopts);
    try {
      interp.run_main();
    } catch (const interp::StepLimitReached& e) {
      // The budget's trip degrades the unit; the safety net's stays a
      // reported trap.
      if (budget_limits)
        throw support::BudgetExceeded("interp.steps", e.limit());
      os << strformat("dynamic run trapped: %s\n", e.what());
    } catch (const interp::InterpError& e) {
      os << strformat("dynamic run trapped: %s\n", e.what());
    }
    rt.publish_obs();
    for (const auto& r : rt.races())
      out.dynamic.push_back({"rt.strand-race", r.second_loc, r.str()});
    for (const auto& m : rt.epoch_mismatches())
      out.dynamic.push_back({"rt.epoch-mismatch", m.second_loc, m.str()});
    for (const auto& f : rt.redundant_flushes())
      out.dynamic.push_back({"rt.redundant-flush", f.loc, f.str()});
    for (const auto& b : rt.barrier_violations())
      out.dynamic.push_back({"rt.missing-barrier", b.loc, b.str()});
    for (const DynamicFinding& f : out.dynamic)
      os << strformat("%s: warning [%s] %s\n", f.loc.str().c_str(),
                      f.rule.c_str(), f.message.c_str());
    dynamic_findings().inc(out.dynamic.size());
  }

  if (opts_.dump_ir) {
    os << "-- IR --\n";
    ir::print_module(module, os);
  }
  out.result = std::move(result);
  os << strformat("%zu warning(s)\n\n", out.warning_count());
  out.text = os.str();
  // A full-rung attempt that gets here is the unit ending ok.
  if (root_cache != nullptr) root_cache->store(fresh);
}

UnitReport AnalysisDriver::analyze_unit(const AnalysisUnit& unit,
                                        support::ThreadPool& pool) const {
  const auto t0 = std::chrono::steady_clock::now();
  obs::Span unit_span("unit.analyze", "driver", {{"unit", unit.name}});
  units_total().inc();
  obs::flight().record("unit.start", {{"unit", unit.name}});

  // One fault-plan snapshot per unit: countdowns are deterministic within
  // the unit no matter how units interleave across workers.
  support::FaultScope faults;

  UnitReport out;
  out.name = unit.name;

  auto fail = [&](const std::string& error, const std::string& reason) {
    out.failed = true;
    out.status = UnitStatus::kFailed;
    out.error = error;
    out.fail_reason = reason;
    out.result = {};
    out.text.clear();
    units_failed().inc();
  };

  const std::vector<LadderRung> ladder = degradation_ladder(opts_);
  std::string trip_reason;  // first budget trip that forced a retry

  for (size_t r = 0; r < ladder.size(); ++r) {
    const LadderRung& rung = ladder[r];
    const bool last = r + 1 == ladder.size();
    if (r > 0)
      obs::flight().record("unit.rung", {{"unit", unit.name},
                                         {"rung", rung.name},
                                         {"why", trip_reason}});
    // Fresh token per attempt: a retry must not inherit the previous
    // rung's cancellation, and the wall watchdog restarts with it — except
    // under an absolute request deadline, which every rung shares.
    support::CancelToken cancel;
    if (opts_.deadline_at)
      cancel.arm_deadline_at(*opts_.deadline_at);
    else if (opts_.budgets.wall_ms > 0)
      cancel.arm_deadline(std::chrono::milliseconds(opts_.budgets.wall_ms));
    faults.set_cancel(cancel);

    UnitReport attempt;
    attempt.name = unit.name;
    std::vector<std::string> roots_exhausted;
    try {
      run_attempt(unit, pool, rung, faults, cancel, attempt,
                  rung.tolerate_root_budget ? &roots_exhausted : nullptr);
      out = std::move(attempt);
      if (r > 0 || !roots_exhausted.empty()) {
        out.status = UnitStatus::kDegraded;
        out.degraded.rung = rung.name;
        out.degraded.reason =
            trip_reason.empty() ? "budget-exhausted:trace.steps" : trip_reason;
        if (opts_.crashsim && !rung.run_crashsim)
          out.degraded.skipped_stages.push_back("crashsim");
        if (opts_.dynamic_run && !rung.run_dynamic)
          out.degraded.skipped_stages.push_back("dynamic");
        out.degraded.roots_budget_exhausted = std::move(roots_exhausted);
        units_degraded().inc();
        // Surface the degradation in the text block, right under the unit
        // header so a human scanning the report cannot miss it.
        std::string note =
            strformat("note: degraded: %s (rung %s", out.degraded.reason.c_str(),
                      out.degraded.rung.c_str());
        if (!out.degraded.skipped_stages.empty()) {
          note += "; skipped";
          for (const std::string& s : out.degraded.skipped_stages)
            note += " " + s;
        }
        note += ")\n";
        const size_t eol = out.text.find('\n');
        out.text.insert(eol == std::string::npos ? out.text.size() : eol + 1,
                        note);
      }
      break;
    } catch (const support::FaultInjected& e) {
      fail(e.what(), "fault-injected:" + e.point());
      break;
    } catch (const support::BudgetExceeded& e) {
      count_budget_trip(e.stage());
      if (trip_reason.empty()) trip_reason = "budget-exhausted:" + e.stage();
      if (last) fail(e.what(), trip_reason);
    } catch (const support::CancelledError& e) {
      const std::string pt = faults.tripped_point();
      if (!pt.empty()) {
        // The cancellation is the echo of a fault trip in a sibling
        // subtask whose FaultInjected was swallowed with its future.
        fail("fault injected: " + pt, "fault-injected:" + pt);
        break;
      }
      count_budget_trip("wall-clock");
      if (trip_reason.empty()) trip_reason = "budget-exhausted:wall-clock";
      if (last) fail(e.what(), trip_reason);
    } catch (const UnitInputError& e) {
      fail(e.what(), e.reason());
      break;
    } catch (const std::exception& e) {
      fail(e.what(), "error");
      break;
    }
  }

  out.stats.elapsed_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  obs::flight().record(
      "unit.finish",
      {{"unit", unit.name},
       {"status", unit_status_name(out.status)},
       {"reason", out.failed ? out.fail_reason : out.degraded.reason}});
  return out;
}

Report AnalysisDriver::run(const std::vector<AnalysisUnit>& units) {
  // jobs == 1 means "serial in the calling thread": a zero-thread pool
  // executes every task inline, so serial runs carry no pool overhead.
  support::ThreadPool pool(support::ThreadPool::workers_for(opts_.jobs));
  return run(units, pool);
}

Report AnalysisDriver::run(const std::vector<AnalysisUnit>& units,
                           support::ThreadPool& pool) {
  obs::Span run_span("driver.run", "driver", {{"units", units.size()}});

  std::vector<std::future<UnitReport>> futs;
  futs.reserve(units.size());
  for (const AnalysisUnit& unit : units)
    futs.push_back(
        pool.submit([this, &unit, &pool] { return analyze_unit(unit, pool); }));

  Report report;
  report.units_.reserve(units.size());
  // Collect in input order; workers may finish in any order. Under
  // --fail-fast, units after the first failure (in *input* order, not
  // completion order — that keeps the cut deterministic) are discarded
  // and reported as not run; their work may already have happened, but
  // none of it leaks into the report.
  bool cut = false;
  for (size_t i = 0; i < futs.size(); ++i) {
    UnitReport u = futs[i].get();
    if (cut) {
      UnitReport skipped;
      skipped.name = units[i].name;
      skipped.failed = true;
      skipped.status = UnitStatus::kFailed;
      skipped.error = "not run: an earlier unit failed (fail-fast)";
      skipped.fail_reason = "not-run";
      report.units_.push_back(std::move(skipped));
      continue;
    }
    if (!opts_.keep_going && u.failed) cut = true;
    report.units_.push_back(std::move(u));
  }
  return report;
}

}  // namespace deepmc::core
