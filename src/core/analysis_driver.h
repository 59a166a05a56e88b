// Parallel analysis orchestration: the one code path through which the
// CLI, tests and benches run DeepMC over a batch of inputs.
//
// The driver fans the batch out across a work-stealing thread pool
// (support/thread_pool.h) at two levels:
//
//   * across units — each corpus module / .mir file is parsed, verified
//     and checked as an independent task, and
//   * within a unit — once the module's DSA is built, every trace root is
//     checked as its own subtask (trace collection + rule scanning is the
//     hot loop of Table 9's compile-time overhead).
//
// Determinism: per-root results are merged in trace_roots() order and
// folded/sorted once (exactly what StaticChecker::run does serially), and
// each unit renders its entire report block into a private buffer; the
// buffers are emitted in input order. Output is therefore byte-identical
// for every --jobs value, which the golden and determinism tests assert.
//
// A unit that fails to build (unreadable file, parse or verify error)
// does not abort the batch: it is recorded as failed and the remaining
// units still run.
//
// Resilience (deepmc-report-v3): every stage is budgeted and cancellable
// (support/budget.h). When a unit exhausts a step budget the driver walks
// a degradation ladder — full bounds, tightened bounds, static-only —
// and classifies the unit ok/degraded/failed with a machine-readable
// reason; degradation is a pure function of the inputs (per-root budgets,
// no shared counters), so reports stay byte-identical at any --jobs. The
// wall-clock watchdog is the one exception: it only fires a CancelToken,
// and what it interrupts depends on the machine.
#pragma once

#include <chrono>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/static_checker.h"
#include "core/suppressions.h"

namespace deepmc::support {
class ThreadPool;
class FaultScope;
}
namespace deepmc::ir {
class Module;
}

namespace deepmc::core {

enum class ReportFormat : uint8_t { kText, kJson };

/// What a unit's build step produced: the module plus an optional
/// persistency model override (corpus units force their framework's
/// model, exactly like the old CLI did). Expected input problems — an
/// unreadable file, a parse error — are returned structurally (`module`
/// null, `error`/`error_reason` set) instead of thrown, so a bad input
/// is per-unit data, not exception control flow through the driver.
struct BuiltUnit {
  std::unique_ptr<ir::Module> module;
  std::optional<PersistencyModel> model;
  std::string error;         ///< why the build produced no module
  std::string error_reason;  ///< machine-readable: "input-error", "parse-error"
};

/// One independent analysis input. `build` runs on a worker thread and
/// may throw; the exception text becomes the unit's error.
struct AnalysisUnit {
  std::string name;                        ///< shown in the report header
  std::function<BuiltUnit()> build;
};

/// Unit over in-memory MIR text (tests, benches).
AnalysisUnit make_source_unit(std::string name, std::string source,
                              std::optional<PersistencyModel> model = {});

/// Unit over a .mir file on disk; the read happens on the worker and an
/// unreadable file fails just that unit.
AnalysisUnit make_file_unit(std::string path,
                            std::optional<PersistencyModel> model = {});

/// Unit over a built-in corpus module (`deepmc --corpus NAME`), analyzed
/// under its framework's persistency model. An unknown name fails the
/// unit with corpus::build_module's error.
AnalysisUnit make_corpus_unit(std::string name);

/// Resilience budgets (0 = unlimited). Step budgets are deterministic:
/// each meter is private to one root / one unit-serial stage, so the trip
/// point is a pure function of the input. `wall_ms` is the watchdog and
/// inherently machine-dependent; it cancels cooperatively and degrades
/// the unit like a step budget, but identity across runs is not promised.
struct BudgetOptions {
  uint64_t trace_steps = 0;   ///< per trace root (collection walk steps)
  uint64_t dsa_steps = 0;     ///< per unit (DSA build, serial)
  uint64_t enum_images = 0;   ///< per crashsim root (materialised subsets)
  /// Per executed root / dynamic run; at or above the interpreter's own
  /// limit (2,000,000 steps per crashsim root, 10,000,000 per dynamic run)
  /// it never trips.
  uint64_t interp_steps = 0;
  uint64_t wall_ms = 0;       ///< per unit attempt, wall clock

  [[nodiscard]] bool any() const {
    return trace_steps || dsa_steps || enum_images || interp_steps || wall_ms;
  }
};

/// Per-root results kept between runs (the serve daemon's cache,
/// src/serve/service.cpp). The driver consults it only on the full rung,
/// after verify and prepare(), with the module it analyzes, that module's
/// call graph and its trace roots, so the cache keys roots on exactly what
/// the checker sees. Calls come from the thread analyzing the unit, which
/// may be any pool worker.
class RootCache {
 public:
  virtual ~RootCache() = default;
  /// One slot per root, in `roots` order: the cached result, or empty for
  /// a root the driver must check.
  virtual std::vector<std::optional<CheckResult>> lookup(
      const ir::Module& module, const analysis::CallGraph& callgraph,
      const std::vector<const ir::Function*>& roots) = 0;
  /// The unit ended ok. `fresh` is parallel to lookup's slots: each root
  /// lookup left empty now holds its freshly checked result, and each
  /// root lookup answered is empty.
  virtual void store(const std::vector<std::optional<CheckResult>>& fresh) = 0;
};

struct DriverOptions {
  PersistencyModel model = PersistencyModel::kStrict;
  analysis::TraceOptions trace;    ///< trace bounds of the ladder's full rung
  bool field_sensitive = true;     ///< DSA field sensitivity (ablation knob)
  bool dynamic_run = false;        ///< execute @main under the runtime checker
  bool crashsim = false;           ///< crash-state enumeration + validation
  bool dump_ir = false;
  bool dump_dsg = false;
  bool dump_traces = false;
  bool suggest = false;            ///< append fix suggestions to warnings
  SuppressionDb suppressions;
  /// Analysis threads. 0 = hardware concurrency; 1 = serial in the calling
  /// thread (no pool threads at all).
  size_t jobs = 0;
  BudgetOptions budgets;
  /// false = fail fast: after the first failed unit (in input order), the
  /// remaining units are reported as not run instead of analyzed. true
  /// (default) keeps the long-standing keep-going behavior.
  bool keep_going = true;
  /// Cached per-root results for the full rung (incremental serving).
  /// Each cached result merges at its root's position in trace_roots()
  /// order, where a fresh check_root result would; the caller only caches
  /// results an identical configuration produced (the serve cache keys
  /// enforce this). Tightened rungs never consult it: their bounds differ.
  /// Non-owning; must outlive the run.
  RootCache* root_cache = nullptr;
  /// Absolute wall-clock deadline covering the unit's *whole* degradation
  /// ladder (serve per-request deadlines). Unlike budgets.wall_ms — which
  /// restarts per attempt — every rung's token is armed against this same
  /// point, so a request finishes (ok, degraded, or failed with
  /// "budget-exhausted:wall-clock") within one deadline, never three.
  std::optional<std::chrono::steady_clock::time_point> deadline_at;
};

/// One rung of the degradation ladder: the bounds and stages a retry
/// uses. Exposed so tests can assert the ladder tightens monotonically.
struct LadderRung {
  std::string name;               ///< "full", "tightened", "static-only"
  analysis::TraceOptions trace;
  size_t max_subset_bits = 10;
  bool run_crashsim = false;
  bool run_dynamic = false;
  /// Final-rung behavior: a per-root trace-budget trip yields an empty
  /// result for that root (recorded in DegradedInfo) instead of failing
  /// the attempt — partial static warnings beat no report.
  bool tolerate_root_budget = false;
};

/// The ladder the driver walks for `opts`: rung 0 is the requested
/// configuration; later rungs tighten every bound monotonically and
/// finally drop crashsim/dynamic.
std::vector<LadderRung> degradation_ladder(const DriverOptions& opts);

/// A dynamic-checker finding, normalized for reporting ("rt.*" rules).
struct DynamicFinding {
  std::string rule;
  SourceLoc loc;
  std::string message;
};

/// End-to-end verdict for one static warning under crash-state enumeration
/// (--crashsim): `confirmed` means at least one enumerated crash image
/// witnesses the warned-about inconsistency; `not-reproduced` means the
/// warned line executed but no reachable image misbehaved; `skipped` means
/// the enumeration could not judge it (performance-class warning, or the
/// code never executed under any simulated root).
enum class Validation : uint8_t { kConfirmed, kNotReproduced, kSkipped };

const char* validation_name(Validation v);

/// Per-root crash-simulation counters (deterministic; no wall clock).
struct CrashSimRootSummary {
  std::string root;
  bool executed = false;
  std::string error;           ///< interpreter failure, when !executed
  uint64_t crash_points = 0;
  uint64_t images = 0;         ///< distinct reachable crash images
  uint64_t witnesses = 0;      ///< trace-oracle violation witnesses
  uint64_t images_consistent = 0;
  uint64_t images_inconsistent = 0;
  uint64_t images_skipped = 0;  ///< no recovery oracle for this unit
  double pruning_ratio = 0;     ///< share of the subset space never built
};

/// Per-unit crash-simulation results: root summaries plus one Validation
/// per static warning (parallel to UnitReport::result.warnings()).
struct CrashSimSummary {
  bool ran = false;
  std::string framework;  ///< recovery oracle used ("" = enumeration only)
  std::vector<CrashSimRootSummary> roots;
  std::vector<Validation> validations;
  size_t confirmed = 0;
  size_t not_reproduced = 0;
  size_t skipped = 0;
};

/// Per-unit observability counters carried into the JSON report.
struct UnitStats {
  size_t trace_roots = 0;
  size_t functions_checked = 0;
  size_t traces_checked = 0;
  size_t dsa_nodes = 0;
  size_t persistent_dsa_nodes = 0;
  double elapsed_ms = 0;  ///< wall clock for this unit (nondeterministic)
};

/// Unit classification under the resilience layer. kOk: analyzed at the
/// requested bounds. kDegraded: a budget tripped and a tightened rung
/// produced (possibly partial) results. kFailed: no analysis result.
enum class UnitStatus : uint8_t { kOk, kDegraded, kFailed };

const char* unit_status_name(UnitStatus s);

/// Why and how a unit was degraded (UnitStatus::kDegraded only).
struct DegradedInfo {
  std::string rung;    ///< ladder rung that produced the result
  std::string reason;  ///< machine-readable, e.g. "budget-exhausted:trace.steps"
  std::vector<std::string> skipped_stages;          ///< "crashsim", "dynamic"
  std::vector<std::string> roots_budget_exhausted;  ///< roots with no results
};

struct UnitReport {
  std::string name;
  PersistencyModel model = PersistencyModel::kStrict;
  CheckResult result;                   ///< static warnings (post-suppression)
  std::vector<DynamicFinding> dynamic;  ///< runtime findings (--dynamic)
  CrashSimSummary crashsim;             ///< filled only under --crashsim
  size_t suppressed = 0;
  std::string text;  ///< fully rendered text block for this unit
  UnitStats stats;
  UnitStatus status = UnitStatus::kOk;
  DegradedInfo degraded;   ///< meaningful when status == kDegraded
  bool failed = false;     ///< kept in sync with status (v2 compatibility)
  std::string error;       ///< build/verify failure message
  std::string fail_reason; ///< machine-readable, e.g. "input-error",
                           ///< "parse-error", "fault-injected:<point>"

  [[nodiscard]] size_t warning_count() const {
    return result.count() + dynamic.size();
  }
};

/// The tools' exit code for a run: 65 if any unit failed, else 66 if any
/// was degraded, else the warning count capped at 63. Report::exit_code
/// and the serve client's total over its requests both use it.
[[nodiscard]] int run_exit_code(bool any_failed, bool any_degraded,
                                uint64_t warnings);

/// The merged, deterministically ordered result of a driver run. Units
/// appear in input order regardless of completion order.
class Report {
 public:
  [[nodiscard]] const std::vector<UnitReport>& units() const {
    return units_;
  }
  [[nodiscard]] size_t total_warnings() const;
  [[nodiscard]] bool any_failed() const;
  [[nodiscard]] bool any_degraded() const;
  /// run_exit_code() of this report.
  [[nodiscard]] int exit_code() const;

  /// Concatenated unit text blocks — byte-identical to what a serial
  /// deepmc run prints. Failed units contribute nothing here (their error
  /// goes to stderr in the CLI).
  void print_text(std::ostream& os) const;
  [[nodiscard]] std::string text() const;

  /// Machine-readable report ("deepmc-report-v3"). `include_timing`
  /// controls the per-unit elapsed_ms field, the only nondeterministic
  /// value in the schema; tests switch it off to compare runs bytewise.
  void print_json(std::ostream& os, bool include_timing = true) const;
  [[nodiscard]] std::string json(bool include_timing = true) const;

  /// Assemble a report from pre-built unit blocks. The serve cache uses
  /// this to render a cached unit through the exact same print paths a
  /// fresh run takes, which is what keeps cached responses byte-identical.
  static Report from_units(std::vector<UnitReport> units);

 private:
  friend class AnalysisDriver;
  std::vector<UnitReport> units_;
};

class AnalysisDriver {
 public:
  explicit AnalysisDriver(DriverOptions opts = {});

  /// Analyze every unit (in parallel per DriverOptions::jobs) and return
  /// the merged report.
  Report run(const std::vector<AnalysisUnit>& units);

  /// Same, over an externally owned pool — the serve daemon keeps one
  /// warm across requests instead of rebuilding workers per request.
  /// DriverOptions::jobs is ignored on this path; the pool decides.
  Report run(const std::vector<AnalysisUnit>& units,
             support::ThreadPool& pool);

  [[nodiscard]] const DriverOptions& options() const { return opts_; }

 private:
  UnitReport analyze_unit(const AnalysisUnit& unit,
                          support::ThreadPool& pool) const;
  /// One ladder-rung attempt. Fills `out` on success; throws the
  /// classified resilience signal (BudgetExceeded, FaultInjected,
  /// CancelledError) or the build/verify error otherwise.
  void run_attempt(const AnalysisUnit& unit, support::ThreadPool& pool,
                   const LadderRung& rung, support::FaultScope& faults,
                   const support::CancelToken& cancel, UnitReport& out,
                   std::vector<std::string>* roots_exhausted) const;

  DriverOptions opts_;
};

}  // namespace deepmc::core
