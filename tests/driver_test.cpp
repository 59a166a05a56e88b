// AnalysisDriver tests: parallel/serial determinism over the full corpus,
// JSON report emission (escaping + schema shape), failed-unit isolation,
// and the dynamic-checker path through the driver.
#include <gtest/gtest.h>

#include <sstream>

#include "core/analysis_driver.h"
#include "corpus/corpus.h"

namespace deepmc {
namespace {

using core::AnalysisDriver;
using core::AnalysisUnit;
using core::DriverOptions;
using core::Report;

constexpr const char* kBuggy = R"(
module "buggy"
struct %node { i64, i64 }

define void @update(%node* %n) {
entry:
  %f = gep %n, 1
  store i64 7, %f !loc("buggy.c", 12)
  ret
}

define void @main() {
entry:
  %n = pm.alloc %node
  tx.begin
  call @update(%n)
  pm.fence
  tx.end
  ret
}
)";

std::vector<AnalysisUnit> corpus_sweep_units() {
  std::vector<AnalysisUnit> units;
  for (const std::string& name : corpus::module_names())
    units.push_back(core::make_corpus_unit(name));
  return units;
}

Report run_sweep(size_t jobs) {
  DriverOptions opts;
  opts.jobs = jobs;
  AnalysisDriver driver(opts);
  return driver.run(corpus_sweep_units());
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(DriverDeterminism, ParallelSweepIsByteIdenticalToSerial) {
  const std::string serial = run_sweep(1).text();
  const std::string parallel = run_sweep(8).text();
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(DriverDeterminism, RepeatedParallelRunsAreStable) {
  const std::string first = run_sweep(8).text();
  for (int i = 0; i < 2; ++i) EXPECT_EQ(first, run_sweep(8).text());
}

TEST(DriverDeterminism, JsonWithoutTimingIsByteIdenticalAcrossJobs) {
  EXPECT_EQ(run_sweep(1).json(/*include_timing=*/false),
            run_sweep(8).json(/*include_timing=*/false));
}

TEST(DriverDeterminism, WarningTotalsMatchAcrossJobCounts) {
  const Report serial = run_sweep(1);
  const Report parallel = run_sweep(4);
  EXPECT_GT(serial.total_warnings(), 0u);
  EXPECT_EQ(serial.total_warnings(), parallel.total_warnings());
  ASSERT_EQ(serial.units().size(), parallel.units().size());
  for (size_t i = 0; i < serial.units().size(); ++i) {
    EXPECT_EQ(serial.units()[i].name, parallel.units()[i].name);
    EXPECT_EQ(serial.units()[i].warning_count(),
              parallel.units()[i].warning_count());
  }
}

// ---------------------------------------------------------------------------
// Driver behaviour
// ---------------------------------------------------------------------------

TEST(Driver, SourceUnitReportsTheSeededBug) {
  AnalysisDriver driver;
  Report report = driver.run({core::make_source_unit("buggy", kBuggy)});
  ASSERT_EQ(report.units().size(), 1u);
  const core::UnitReport& u = report.units()[0];
  EXPECT_FALSE(u.failed);
  ASSERT_EQ(u.result.count(), 1u);
  EXPECT_EQ(u.result.warnings()[0].rule, "strict.unflushed-write");
  EXPECT_NE(u.text.find("buggy.c:12"), std::string::npos);
  EXPECT_NE(u.text.find("1 warning(s)"), std::string::npos);
  EXPECT_GT(u.stats.trace_roots, 0u);
  EXPECT_GT(u.stats.traces_checked, 0u);
  EXPECT_GT(u.stats.dsa_nodes, 0u);
}

TEST(Driver, FailedUnitDoesNotAbortTheBatch) {
  AnalysisDriver driver;
  Report report = driver.run({
      core::make_source_unit("bad", "module \"x\"\ndefine void @f( {\n"),
      core::make_source_unit("good", kBuggy),
  });
  ASSERT_EQ(report.units().size(), 2u);
  EXPECT_TRUE(report.units()[0].failed);
  EXPECT_FALSE(report.units()[0].error.empty());
  EXPECT_TRUE(report.units()[0].text.empty());
  EXPECT_FALSE(report.units()[1].failed);
  EXPECT_EQ(report.units()[1].result.count(), 1u);
  EXPECT_TRUE(report.any_failed());
}

TEST(Driver, ExitCodeRanksFailedThenDegradedThenWarnings) {
  EXPECT_EQ(core::run_exit_code(true, true, 5), 65);
  EXPECT_EQ(core::run_exit_code(false, true, 5), 66);
  EXPECT_EQ(core::run_exit_code(false, false, 5), 5);
  EXPECT_EQ(core::run_exit_code(false, false, 64), 63);
  EXPECT_EQ(core::run_exit_code(false, false, 0), 0);
}

TEST(Driver, MissingFileFailsJustThatUnit) {
  AnalysisDriver driver;
  Report report = driver.run({core::make_file_unit("/no/such/file.mir")});
  ASSERT_EQ(report.units().size(), 1u);
  EXPECT_TRUE(report.units()[0].failed);
  EXPECT_NE(report.units()[0].error.find("cannot open"), std::string::npos);
}

TEST(Driver, UnitModelOverrideWins) {
  DriverOptions opts;
  opts.model = core::PersistencyModel::kStrict;
  AnalysisDriver driver(opts);
  Report report = driver.run({core::make_source_unit(
      "m", "module \"m\"\n", core::PersistencyModel::kEpoch)});
  ASSERT_EQ(report.units().size(), 1u);
  EXPECT_EQ(report.units()[0].model, core::PersistencyModel::kEpoch);
  EXPECT_NE(report.units()[0].text.find("(model: epoch)"),
            std::string::npos);
}

TEST(Driver, DynamicRunThroughDriverFindsRuntimeBugs) {
  // pmdk/hashmap_atomic carries the paper's dynamically-discovered bugs;
  // the driver must reproduce what the serial CLI reported.
  DriverOptions opts;
  opts.dynamic_run = true;
  AnalysisDriver driver(opts);
  Report report = driver.run({core::make_corpus_unit("pmdk/hashmap_atomic")});
  ASSERT_EQ(report.units().size(), 1u);
  const core::UnitReport& u = report.units()[0];
  EXPECT_FALSE(u.failed);
  EXPECT_FALSE(u.dynamic.empty());
  bool has_rt_rule = false;
  for (const auto& f : u.dynamic)
    if (f.rule.rfind("rt.", 0) == 0) has_rt_rule = true;
  EXPECT_TRUE(has_rt_rule);
  EXPECT_EQ(u.warning_count(), u.result.count() + u.dynamic.size());
}

// ---------------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------------

TEST(DriverJson, QuoteEscapesSpecialCharacters) {
  EXPECT_EQ(core::json_quote("plain"), "\"plain\"");
  EXPECT_EQ(core::json_quote("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(core::json_quote("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(core::json_quote("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(core::json_quote(std::string("nul\x01") + "z"),
            "\"nul\\u0001z\"");
  EXPECT_EQ(core::json_quote("caf\xc3\xa9"), "\"caf\xc3\xa9\"");  // UTF-8
}

TEST(DriverJson, WarningToJsonHasFixedKeys) {
  core::Warning w;
  w.rule = "strict.unflushed-write";
  w.category = core::BugCategory::kUnflushedWrite;
  w.model = core::PersistencyModel::kStrict;
  w.loc = SourceLoc("a \"quoted\" file.c", 7);
  w.function = "f";
  w.message = "msg";
  const std::string j = core::to_json(w);
  EXPECT_NE(j.find("\"file\": \"a \\\"quoted\\\" file.c\""),
            std::string::npos);
  EXPECT_NE(j.find("\"line\": 7"), std::string::npos);
  EXPECT_NE(j.find("\"rule\": \"strict.unflushed-write\""),
            std::string::npos);
  EXPECT_NE(j.find("\"class\": \"Model Violation\""), std::string::npos);
  EXPECT_NE(j.find("\"model\": \"strict\""), std::string::npos);
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
}

TEST(DriverJson, ReportSchemaShape) {
  AnalysisDriver driver;
  Report report = driver.run({core::make_source_unit("buggy", kBuggy)});
  const std::string j = report.json(/*include_timing=*/false);
  EXPECT_NE(j.find("\"schema\": \"deepmc-report-v3\""), std::string::npos);
  EXPECT_NE(j.find("\"total_warnings\": 1"), std::string::npos);
  EXPECT_NE(j.find("\"units\": ["), std::string::npos);
  EXPECT_NE(j.find("\"warnings\": ["), std::string::npos);
  EXPECT_NE(j.find("\"dynamic_warnings\": []"), std::string::npos);
  EXPECT_NE(j.find("\"stats\": {\"trace_roots\": "), std::string::npos);
  EXPECT_EQ(j.find("elapsed_ms"), std::string::npos);  // timing off
  // Balanced braces/brackets (cheap well-formedness check; no JSON parser
  // in the toolchain).
  int depth = 0;
  bool in_str = false;
  for (size_t i = 0; i < j.size(); ++i) {
    const char c = j[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_str);
}

TEST(DriverJson, TimingIncludedByDefault) {
  AnalysisDriver driver;
  Report report = driver.run({core::make_source_unit("buggy", kBuggy)});
  EXPECT_NE(report.json().find("\"elapsed_ms\": "), std::string::npos);
}

TEST(DriverJson, FailedUnitCarriesError) {
  AnalysisDriver driver;
  Report report =
      driver.run({core::make_source_unit(
          "bad", "module \"x\"\ndefine void @f( {\n")});
  const std::string j = report.json(false);
  EXPECT_NE(j.find("\"failed\": true"), std::string::npos);
  EXPECT_NE(j.find("\"error\": "), std::string::npos);
}

}  // namespace
}  // namespace deepmc
