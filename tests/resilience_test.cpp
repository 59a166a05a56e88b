// Resilience-layer tests: deterministic budgets, the degradation ladder,
// cooperative cancellation, fail-fast, and the fault-injection harness.
//
// The load-bearing property is that classification (ok / degraded /
// failed) is a pure function of the inputs: the same units under the same
// budgets produce byte-identical reports at --jobs 1, 4 and 16.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/analysis_driver.h"
#include "support/budget.h"
#include "support/faultpoint.h"

namespace deepmc {
namespace {

using core::AnalysisDriver;
using core::AnalysisUnit;
using core::DriverOptions;
using core::LadderRung;
using core::Report;
using core::UnitStatus;

// A module whose @main executes persistent stores: every fault point in
// the pipeline (parse, DSA, trace, root check, enumeration, interpreter)
// is on its analysis path once crashsim + dynamic are enabled.
constexpr const char* kExecutable = R"(
module "exec"
struct %rec { i64, i64 }

define void @touch(%rec* %r) {
entry:
  %f = gep %r, 0
  store i64 1, %f !loc("exec.c", 7)
  pm.flush %f, 8
  pm.fence
  %g = gep %r, 1
  store i64 2, %g !loc("exec.c", 11)
  ret
}

define void @main() {
entry:
  %r = pm.alloc %rec
  call @touch(%r)
  pm.fence
  ret
}
)";

// A looping root: the trace walk revisits the loop body up to the bound,
// so a small trace-step budget trips deterministically.
constexpr const char* kLoopy = R"(
module "loopy"
struct %cell { i64 }

define void @spin(%cell* %c, i64 %n) {
entry:
  br label %head
head:
  %f = gep %c, 0
  store i64 1, %f !loc("loopy.c", 9)
  %done = eq %n, 0
  br %done, label %exit, label %head
exit:
  ret
}
)";

std::vector<AnalysisUnit> mixed_units() {
  std::vector<AnalysisUnit> units;
  units.push_back(core::make_source_unit("loopy", kLoopy));
  units.push_back(core::make_corpus_unit("pmdk/btree_map"));
  units.push_back(core::make_source_unit("exec", kExecutable));
  units.push_back(core::make_corpus_unit("pmfs/journal"));
  return units;
}

/// Guard: no test leaks an armed fault into the next one.
class FaultGuard {
 public:
  FaultGuard() { support::clear_faults(); }
  ~FaultGuard() { support::clear_faults(); }
};

// ---------------------------------------------------------------------------
// Budgets and degraded classification
// ---------------------------------------------------------------------------

TEST(ResilienceBudget, TinyTraceBudgetDegradesInsteadOfFailing) {
  DriverOptions opts;
  opts.budgets.trace_steps = 5;
  opts.jobs = 1;
  AnalysisDriver driver(opts);
  Report report = driver.run({core::make_corpus_unit("pmdk/btree_map")});
  ASSERT_EQ(report.units().size(), 1u);
  const core::UnitReport& u = report.units()[0];
  EXPECT_FALSE(u.failed);
  EXPECT_EQ(u.status, UnitStatus::kDegraded);
  EXPECT_EQ(u.degraded.reason, "budget-exhausted:trace.steps");
  EXPECT_EQ(u.degraded.rung, "static-only");
  EXPECT_NE(u.text.find("note: degraded:"), std::string::npos);
  EXPECT_TRUE(report.any_degraded());
  EXPECT_FALSE(report.any_failed());
}

TEST(ResilienceBudget, PartialResultsBeatNoReport) {
  // At the final rung, roots that exhaust the budget are dropped with a
  // note while cheap roots still contribute their warnings.
  DriverOptions opts;
  opts.budgets.trace_steps = 5;
  opts.jobs = 1;
  AnalysisDriver driver(opts);
  Report report = driver.run({core::make_corpus_unit("pmdk/btree_map")});
  const core::UnitReport& u = report.units()[0];
  EXPECT_FALSE(u.degraded.roots_budget_exhausted.empty());
  EXPECT_NE(u.text.find("trace budget exhausted"), std::string::npos);
}

TEST(ResilienceBudget, GenerousBudgetChangesNothing) {
  DriverOptions base;
  base.jobs = 1;
  DriverOptions budgeted = base;
  budgeted.budgets.trace_steps = 1u << 30;
  budgeted.budgets.dsa_steps = 1u << 30;
  budgeted.budgets.enum_images = 1u << 30;
  budgeted.budgets.interp_steps = 1u << 30;
  const std::string a =
      AnalysisDriver(base).run(mixed_units()).json(/*include_timing=*/false);
  const std::string b = AnalysisDriver(budgeted)
                            .run(mixed_units())
                            .json(/*include_timing=*/false);
  EXPECT_EQ(a, b);
}

TEST(ResilienceBudget, DegradedReportIsByteIdenticalAcrossJobs) {
  auto run = [](size_t jobs) {
    DriverOptions opts;
    opts.budgets.trace_steps = 5;
    opts.jobs = jobs;
    return AnalysisDriver(opts).run(mixed_units()).json(
        /*include_timing=*/false);
  };
  const std::string j1 = run(1);
  EXPECT_EQ(j1, run(4));
  EXPECT_EQ(j1, run(16));
  EXPECT_NE(j1.find("\"status\": \"degraded\""), std::string::npos);
}

TEST(ResilienceBudget, DsaBudgetTripsDeterministically) {
  DriverOptions opts;
  opts.budgets.dsa_steps = 3;
  opts.jobs = 1;
  AnalysisDriver driver(opts);
  Report report = driver.run({core::make_corpus_unit("pmdk/btree_map")});
  const core::UnitReport& u = report.units()[0];
  // DSA cost does not shrink with trace bounds, so every rung trips and
  // the unit ends failed with the budget as its machine-readable reason.
  EXPECT_TRUE(u.failed);
  EXPECT_EQ(u.status, UnitStatus::kFailed);
  EXPECT_EQ(u.fail_reason, "budget-exhausted:dsa.steps");
}

// ---------------------------------------------------------------------------
// Ladder shape
// ---------------------------------------------------------------------------

TEST(ResilienceLadder, TightensMonotonicallyAndDropsStages) {
  DriverOptions opts;
  opts.crashsim = true;
  opts.dynamic_run = true;
  const std::vector<LadderRung> ladder = core::degradation_ladder(opts);
  ASSERT_GE(ladder.size(), 2u);
  EXPECT_EQ(ladder.front().name, "full");
  EXPECT_EQ(ladder.back().name, "static-only");
  for (size_t i = 1; i < ladder.size(); ++i) {
    const LadderRung& hi = ladder[i - 1];
    const LadderRung& lo = ladder[i];
    EXPECT_LE(lo.trace.max_loop_visits, hi.trace.max_loop_visits);
    EXPECT_LE(lo.trace.max_recursion, hi.trace.max_recursion);
    EXPECT_LE(lo.trace.max_paths, hi.trace.max_paths);
    EXPECT_LE(lo.trace.max_callee_paths, hi.trace.max_callee_paths);
    EXPECT_LE(lo.max_subset_bits, hi.max_subset_bits);
    // Bounds never collapse to zero: every rung still analyzes something.
    EXPECT_GE(lo.trace.max_loop_visits, 1);
    EXPECT_GE(lo.trace.max_recursion, 1);
    EXPECT_GE(lo.trace.max_paths, 1u);
    EXPECT_GE(lo.trace.max_callee_paths, 1u);
  }
  EXPECT_TRUE(ladder.front().run_crashsim);
  EXPECT_TRUE(ladder.front().run_dynamic);
  EXPECT_FALSE(ladder.back().run_crashsim);
  EXPECT_FALSE(ladder.back().run_dynamic);
  EXPECT_TRUE(ladder.back().tolerate_root_budget);
  EXPECT_FALSE(ladder.front().tolerate_root_budget);
}

TEST(ResilienceLadder, SkippedStagesAreReported) {
  DriverOptions opts;
  opts.crashsim = true;
  opts.budgets.trace_steps = 5;
  opts.jobs = 1;
  AnalysisDriver driver(opts);
  Report report = driver.run({core::make_corpus_unit("pmdk/btree_map")});
  const core::UnitReport& u = report.units()[0];
  ASSERT_EQ(u.status, UnitStatus::kDegraded);
  ASSERT_EQ(u.degraded.skipped_stages.size(), 1u);
  EXPECT_EQ(u.degraded.skipped_stages[0], "crashsim");
  EXPECT_FALSE(u.crashsim.ran);
  EXPECT_NE(report.json(false).find("\"skipped_stages\": [\"crashsim\"]"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST(ResilienceFaults, EveryRegisteredPointHasInjectionCoverage) {
  // One unit whose pipeline crosses every driver-stage point; injecting
  // any of them must fail exactly that unit with a machine-readable
  // reason. Serve-layer points (serve.*, cache.*) trip outside the
  // driver and are covered by tests/serve_test.cpp instead; load-engine
  // points (load.*) trip inside deepmc-load workers and are covered by
  // tests/load_test.cpp.
  for (const std::string& point : support::registered_fault_points()) {
    SCOPED_TRACE(point);
    if (point.rfind("serve.", 0) == 0 || point.rfind("cache.", 0) == 0 ||
        point.rfind("load.", 0) == 0)
      continue;
    FaultGuard guard;
    support::arm_fault(point + ":1");
    DriverOptions opts;
    opts.crashsim = true;
    opts.dynamic_run = true;
    opts.jobs = 1;
    AnalysisDriver driver(opts);
    Report report =
        driver.run({core::make_source_unit("exec", kExecutable)});
    ASSERT_EQ(report.units().size(), 1u);
    const core::UnitReport& u = report.units()[0];
    EXPECT_TRUE(u.failed) << "fault point " << point << " never fired";
    EXPECT_EQ(u.status, UnitStatus::kFailed);
    EXPECT_EQ(u.fail_reason, "fault-injected:" + point);
    EXPECT_NE(u.error.find(point), std::string::npos);
  }
}

TEST(ResilienceFaults, UnaffectedUnitsAreByteIdentical) {
  // Failing unit 0 via injection must not change what units 1..n report,
  // at any jobs value. The fault plan counts per unit, so only the unit
  // that actually hits the point trips.
  const std::string clean = [&] {
    FaultGuard guard;
    DriverOptions opts;
    opts.jobs = 1;
    return AnalysisDriver(opts).run(mixed_units()).json(false);
  }();
  for (size_t jobs : {1u, 4u, 16u}) {
    FaultGuard guard;
    support::arm_fault("trace.step:1");
    DriverOptions opts;
    opts.jobs = jobs;
    Report report = AnalysisDriver(opts).run(mixed_units());
    // Every unit walks traces, so every unit trips independently — their
    // failures are identical across jobs values.
    const std::string faulted = report.json(false);
    static std::string first;
    if (first.empty()) first = faulted;
    EXPECT_EQ(first, faulted);
    for (const core::UnitReport& u : report.units())
      EXPECT_EQ(u.fail_reason, "fault-injected:trace.step");
  }
  // And with faults cleared the sweep returns to the clean baseline.
  FaultGuard guard;
  DriverOptions opts;
  opts.jobs = 4;
  EXPECT_EQ(clean, AnalysisDriver(opts).run(mixed_units()).json(false));
}

TEST(ResilienceFaults, CountNArmsTheNthHit) {
  FaultGuard guard;
  // A count far beyond the unit's total trace steps never fires.
  support::arm_fault("trace.step:100000000");
  DriverOptions opts;
  opts.jobs = 1;
  Report report =
      AnalysisDriver(opts).run({core::make_source_unit("exec", kExecutable)});
  EXPECT_FALSE(report.units()[0].failed);
}

TEST(ResilienceFaults, BadSpecsAreRejected) {
  FaultGuard guard;
  EXPECT_THROW(support::arm_fault("nonsense.point:1"), std::invalid_argument);
  EXPECT_THROW(support::arm_fault("trace.step"), std::invalid_argument);
  EXPECT_THROW(support::arm_fault("trace.step:0"), std::invalid_argument);
  EXPECT_THROW(support::arm_fault("trace.step:x"), std::invalid_argument);
  EXPECT_FALSE(support::any_faults_armed());
}

// ---------------------------------------------------------------------------
// Fail-fast
// ---------------------------------------------------------------------------

TEST(ResilienceFailFast, LaterUnitsAreReportedNotRun) {
  DriverOptions opts;
  opts.keep_going = false;
  opts.jobs = 4;
  std::vector<AnalysisUnit> units;
  units.push_back(core::make_corpus_unit("pmdk/btree_map"));
  units.push_back(core::make_source_unit("broken", "define oops"));
  units.push_back(core::make_corpus_unit("pmfs/journal"));
  Report report = AnalysisDriver(opts).run(units);
  ASSERT_EQ(report.units().size(), 3u);
  EXPECT_FALSE(report.units()[0].failed);
  EXPECT_TRUE(report.units()[1].failed);
  EXPECT_TRUE(report.units()[2].failed);
  EXPECT_EQ(report.units()[2].fail_reason, "not-run");
}

TEST(ResilienceFailFast, KeepGoingStillAnalyzesEveryUnit) {
  DriverOptions opts;
  opts.jobs = 4;  // keep_going defaults to true
  std::vector<AnalysisUnit> units;
  units.push_back(core::make_source_unit("broken", "define oops"));
  units.push_back(core::make_corpus_unit("pmfs/journal"));
  Report report = AnalysisDriver(opts).run(units);
  EXPECT_TRUE(report.units()[0].failed);
  EXPECT_FALSE(report.units()[1].failed);
}

// ---------------------------------------------------------------------------
// Budget primitives
// ---------------------------------------------------------------------------

TEST(ResiliencePrimitives, BudgetChargesAndTrips) {
  support::Budget b("test.stage", 3);
  EXPECT_NO_THROW(b.charge(2));
  EXPECT_NO_THROW(b.charge(1));
  try {
    b.charge(1);
    FAIL() << "expected BudgetExceeded";
  } catch (const support::BudgetExceeded& e) {
    EXPECT_EQ(e.stage(), "test.stage");
    EXPECT_EQ(e.limit(), 3u);
  }
}

TEST(ResiliencePrimitives, UnlimitedBudgetNeverTrips) {
  support::Budget b("test.stage", 0);
  EXPECT_FALSE(b.limited());
  for (int i = 0; i < 10000; ++i) b.charge(1u << 20);
}

TEST(ResiliencePrimitives, CancelTokenFirstReasonWins) {
  support::CancelToken t;
  EXPECT_FALSE(t.cancelled());
  EXPECT_NO_THROW(t.check());
  t.cancel("first");
  t.cancel("second");
  EXPECT_TRUE(t.cancelled());
  EXPECT_EQ(t.reason(), "first");
  try {
    t.check();
    FAIL() << "expected CancelledError";
  } catch (const support::CancelledError& e) {
    EXPECT_EQ(e.reason(), "first");
  }
}

TEST(ResiliencePrimitives, BudgetPropagatesCancellation) {
  support::CancelToken t;
  support::Budget b("test.stage", 0);
  b.set_cancel(t);
  t.cancel("stop");
  EXPECT_THROW(b.check_cancel(), support::CancelledError);
  // The amortized poll in charge() fires within one poll window.
  bool threw = false;
  try {
    for (int i = 0; i < 5000; ++i) b.charge();
  } catch (const support::CancelledError&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace deepmc
