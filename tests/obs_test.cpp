// Observability layer tests: metrics-registry semantics in-process, and
// the CLI-level determinism contract driven through the real deepmc
// binary (DEEPMC_BIN / DEEPMC_SOURCE_DIR compile definitions).
//
// The contract under test (src/obs/metrics.h):
//  * concurrent increments never lose counts (sharded relaxed atomics),
//  * histogram bucket boundaries are stable (v <= bound, first match),
//  * the stable section of --metrics-out is byte-identical across --jobs
//    values and matches a checked-in golden (UPDATE_GOLDEN=1 regenerates),
//  * the analysis report is byte-identical with observability on or off.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace deepmc {
namespace {

namespace fs = std::filesystem;

/// Turns recording on for one test and restores a clean registry after,
/// so tests compose in any order within the binary.
struct ObsSession {
  ObsSession() {
    obs::registry().reset();
    obs::set_enabled(true);
  }
  ~ObsSession() {
    obs::set_enabled(false);
    obs::registry().reset();
  }
};

TEST(ObsRegistry, DisabledHooksRecordNothing) {
  obs::registry().reset();
  obs::set_enabled(false);
  obs::Counter c = obs::registry().counter(
      "test.disabled_total", obs::Volatility::kStable, "off-switch check");
  c.inc(42);
  for (const auto& e : obs::registry().snapshot().counters)
    if (e.name == "test.disabled_total") EXPECT_EQ(e.value, 0u);
}

TEST(ObsRegistry, ConcurrentIncrementsSumExactly) {
  ObsSession session;
  obs::Counter c = obs::registry().counter(
      "test.concurrent_total", obs::Volatility::kStable, "loss check");
  constexpr int kThreads = 8;
  constexpr uint64_t kIncs = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kIncs; ++i) c.inc();
    });
  for (auto& t : threads) t.join();

  uint64_t value = 0;
  for (const auto& e : obs::registry().snapshot().counters)
    if (e.name == "test.concurrent_total") value = e.value;
  EXPECT_EQ(value, kThreads * kIncs);
}

TEST(ObsRegistry, HistogramBucketBoundariesAreStable) {
  ObsSession session;
  obs::Histogram h = obs::registry().histogram(
      "test.boundaries", obs::Volatility::kStable, "le semantics",
      {10, 20, 40});
  h.observe(10);  // == bound -> bucket 0
  h.observe(11);  // first bound >= v -> bucket 1
  h.observe(40);  // == last bound -> bucket 2
  h.observe(41);  // past every bound -> overflow

  obs::HistogramValue v;
  for (const auto& e : obs::registry().snapshot().histograms)
    if (e.name == "test.boundaries") v = e.value;
  ASSERT_EQ(v.counts.size(), 3u);
  EXPECT_EQ(v.counts[0], 1u);
  EXPECT_EQ(v.counts[1], 1u);
  EXPECT_EQ(v.counts[2], 1u);
  EXPECT_EQ(v.overflow, 1u);
  EXPECT_EQ(v.count, 4u);
  EXPECT_EQ(v.sum, 10u + 11 + 40 + 41);
}

TEST(ObsRegistry, HistogramQuantilesAreExactOnSyntheticData) {
  // 100 observations over bounds {10, 20, 30, 40}: 50 land in the first
  // bucket, 30 in the second, 15 in the third, 4 in the fourth, 1
  // overflows. Rank-based quantiles over fixed buckets are exact.
  obs::HistogramValue v;
  v.bounds = {10, 20, 30, 40};
  v.counts = {50, 30, 15, 4};
  v.overflow = 1;
  v.count = 100;
  EXPECT_EQ(obs::histogram_quantile(v, 0.50), 10u);  // rank 50 -> bucket 0
  EXPECT_EQ(obs::histogram_quantile(v, 0.51), 20u);  // rank 51 -> bucket 1
  EXPECT_EQ(obs::histogram_quantile(v, 0.80), 20u);  // rank 80 -> bucket 1
  EXPECT_EQ(obs::histogram_quantile(v, 0.95), 30u);  // rank 95 -> bucket 2
  EXPECT_EQ(obs::histogram_quantile(v, 0.99), 40u);  // rank 99 -> bucket 3
  // Ranks landing in the overflow bucket saturate to the last bound.
  EXPECT_EQ(obs::histogram_quantile(v, 1.0), 40u);
  // q is clamped; degenerate inputs stay defined.
  EXPECT_EQ(obs::histogram_quantile(v, -1.0), 10u);
  EXPECT_EQ(obs::histogram_quantile(v, 2.0), 40u);
  EXPECT_EQ(obs::histogram_quantile(obs::HistogramValue{}, 0.5), 0u);
}

TEST(ObsRegistry, HistogramAddFoldsLocalValues) {
  ObsSession session;
  obs::Histogram h = obs::registry().histogram(
      "test.folded", obs::Volatility::kStable, "local fold", {100, 200});
  // A hot loop accumulates locally (same bounds), then publishes once.
  obs::HistogramValue local;
  local.bounds = {100, 200};
  local.counts = {3, 2};
  local.overflow = 1;
  local.sum = 3 * 50 + 2 * 150 + 999;
  local.count = 6;
  h.observe(100);  // pre-existing direct observation
  h.add(local);

  obs::HistogramValue v;
  for (const auto& e : obs::registry().snapshot().histograms)
    if (e.name == "test.folded") v = e.value;
  ASSERT_EQ(v.counts.size(), 2u);
  EXPECT_EQ(v.counts[0], 4u);
  EXPECT_EQ(v.counts[1], 2u);
  EXPECT_EQ(v.overflow, 1u);
  EXPECT_EQ(v.count, 7u);
  EXPECT_EQ(v.sum, 100u + local.sum);
}

TEST(ObsRegistry, SnapshotIsSortedAndRereadable) {
  ObsSession session;
  // Register out of order; snapshot must come back name-sorted.
  obs::registry().counter("test.zzz_total", obs::Volatility::kStable, "z");
  obs::registry().counter("test.aaa_total", obs::Volatility::kStable, "a");
  const obs::Snapshot snap = obs::registry().snapshot();
  for (size_t i = 1; i < snap.counters.size(); ++i)
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  // Re-registering the same name returns the same cell.
  obs::Counter a1 = obs::registry().counter("test.aaa_total",
                                            obs::Volatility::kStable, "a");
  obs::Counter a2 = obs::registry().counter("test.aaa_total",
                                            obs::Volatility::kStable, "a");
  a1.inc();
  a2.inc(2);
  for (const auto& e : obs::registry().snapshot().counters)
    if (e.name == "test.aaa_total") EXPECT_EQ(e.value, 3u);
}

TEST(ObsRegistry, StableJsonIsAPrefixOfFullJson) {
  ObsSession session;
  obs::Counter s = obs::registry().counter("test.stable_total",
                                           obs::Volatility::kStable, "s");
  obs::Counter v = obs::registry().counter("test.volatile_total",
                                           obs::Volatility::kVolatile, "v");
  s.inc(7);
  v.inc(9);
  obs::Snapshot snap = obs::registry().snapshot();
  snap.wall_ms = 123.456;

  const std::string full = snap.to_json(/*include_volatile=*/true);
  const std::string stable = snap.to_json(/*include_volatile=*/false);
  EXPECT_NE(full.find("\"test.volatile_total\": 9"), std::string::npos);
  EXPECT_NE(full.find("\"wall_clock\""), std::string::npos);
  EXPECT_EQ(stable.find("volatile"), std::string::npos);
  EXPECT_EQ(stable.find("wall_clock"), std::string::npos);

  // Textual strip contract: cutting `full` at the volatile marker and
  // closing the object reproduces to_json(false) byte for byte.
  const std::string marker = ",\n  \"volatile\": {";
  const size_t pos = full.find(marker);
  ASSERT_NE(pos, std::string::npos);
  EXPECT_EQ(full.substr(0, pos) + "\n}\n", stable);
}

TEST(ObsRegistry, PrometheusExposition) {
  ObsSession session;
  obs::registry().counter("test.prom-name_total", obs::Volatility::kStable,
                          "prom").inc(3);
  obs::Histogram h = obs::registry().histogram(
      "test.prom_hist", obs::Volatility::kStable, "h", {1, 2});
  h.observe(1);
  h.observe(5);
  std::ostringstream os;
  obs::registry().snapshot().to_prometheus(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("deepmc_test_prom_name_total 3"), std::string::npos);
  EXPECT_NE(out.find("deepmc_test_prom_hist_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(out.find("deepmc_test_prom_hist_sum 6"), std::string::npos);
}

TEST(ObsFlight, DisarmedRecordsNothing) {
  obs::flight().disarm();
  EXPECT_FALSE(obs::flight().armed());
  EXPECT_EQ(obs::flight_kv("k", "v"), "");
  EXPECT_EQ(obs::flight_kv_num("n", 3), "");
  obs::flight().record("test.never", obs::flight_kv("k", "v"));
  EXPECT_TRUE(obs::flight().events().empty());
}

TEST(ObsFlight, RingKeepsLastKInOrder) {
  // The eviction-order contract: recording k+m events into capacity k
  // keeps exactly the last k, in seq order — deterministic, not
  // scheduling-dependent (single recording thread here).
  obs::flight().arm(/*capacity=*/8);
  for (int i = 0; i < 20; ++i)
    obs::flight().record("test.ring",
                         obs::flight_kv_num("i", static_cast<double>(i)));
  const std::vector<obs::FlightEvent> events = obs::flight().events();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);  // newest 8 of seq 0..19
    EXPECT_EQ(events[i].detail,
              "\"i\": " + std::to_string(12 + i));
  }
  obs::flight().disarm();
  EXPECT_TRUE(obs::flight().events().empty());
}

TEST(ObsFlight, ConcurrentWraparoundKeepsNewestCapacity) {
  // Many threads over-fill the ring; the merged view must hold exactly
  // `capacity` events and they must be the globally newest seqs.
  constexpr size_t kCap = 64;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  obs::flight().arm(kCap);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i)
        obs::flight().record("test.mt");
    });
  for (auto& t : threads) t.join();

  const std::vector<obs::FlightEvent> events = obs::flight().events();
  ASSERT_EQ(events.size(), kCap);
  constexpr uint64_t kTotal = kThreads * kPerThread;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) EXPECT_LT(events[i - 1].seq, events[i].seq);
    EXPECT_GE(events[i].seq, kTotal - kCap);
    EXPECT_LT(events[i].seq, kTotal);
  }
  obs::flight().disarm();
}

TEST(ObsFlight, DumpJsonlIsOneObjectPerLine) {
  obs::flight().arm(16);
  obs::flight().record("test.plain");
  obs::flight().record(
      "test.detail",
      obs::flight_join({obs::flight_kv("unit", "a\"b"),
                        obs::flight_kv_num("bytes", 128)}));
  std::ostringstream os;
  obs::flight().dump_jsonl(os);
  obs::flight().disarm();
  const std::string out = os.str();
  std::istringstream lines(out);
  std::string line;
  size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_EQ(line.compare(0, 8, "{\"seq\": "), 0) << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
  EXPECT_EQ(n, 2u);
  EXPECT_NE(out.find("\"kind\": \"test.plain\""), std::string::npos);
  // Detail pairs are escaped and joined; empty details omit the object.
  EXPECT_NE(out.find("\"detail\": {\"unit\": \"a\\\"b\", \"bytes\": 128}"),
            std::string::npos);
  EXPECT_EQ(out.find("test.plain\", \"detail\""), std::string::npos);
}

TEST(ObsFlight, RearmResetsSequenceAndClock) {
  obs::flight().arm(4);
  obs::flight().record("test.first");
  obs::flight().arm(4);  // restart drops prior events, re-zeros seq
  obs::flight().record("test.second");
  const std::vector<obs::FlightEvent> events = obs::flight().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_STREQ(events[0].kind, "test.second");
  obs::flight().disarm();
}

TEST(ObsTracer, SpansAreFreeWhenInactive) {
  // No tracer started: spans must not record anything and args helpers
  // must short-circuit to "".
  EXPECT_FALSE(obs::tracer().active());
  EXPECT_EQ(obs::span_arg("k", "v"), "");
  { obs::Span s("test.span", "test"); }
  std::ostringstream os;
  obs::tracer().write(os);
  EXPECT_EQ(os.str().find("test.span"), std::string::npos);
}

TEST(ObsTracer, RecordsAndDiscardsSpans) {
  obs::set_enabled(true);
  obs::tracer().start();
  {
    obs::Span s("test.traced", "test", obs::span_arg("root", "main"));
  }
  std::ostringstream os;
  obs::tracer().write(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"test.traced\""), std::string::npos);
  EXPECT_NE(out.find("\"root\": \"main\""), std::string::npos);
  obs::tracer().stop();  // discards
  obs::set_enabled(false);
  std::ostringstream os2;
  obs::tracer().write(os2);
  EXPECT_EQ(os2.str().find("test.traced"), std::string::npos);
}

TEST(ObsTracer, RingCapacityKeepsRecentSpans) {
  // A long-lived daemon bounds each thread's span buffer; only the
  // newest spans survive, and time-sorting makes rotation invisible.
  obs::set_enabled(true);
  obs::tracer().set_ring_capacity(4);
  obs::tracer().start();
  // Span/event names require static storage duration (the tracer keeps
  // the pointer, like the Span class does with its literal names).
  static const char* kNames[10] = {
      "test.ring0", "test.ring1", "test.ring2", "test.ring3", "test.ring4",
      "test.ring5", "test.ring6", "test.ring7", "test.ring8", "test.ring9"};
  for (int i = 0; i < 10; ++i)
    obs::tracer().record(kNames[i], "test", obs::tracer().now_us(), 1.0, "");
  std::ostringstream os;
  obs::tracer().write(os);
  obs::tracer().stop();
  obs::tracer().set_ring_capacity(0);
  obs::set_enabled(false);
  const std::string out = os.str();
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(out.find("test.ring" + std::to_string(i)), std::string::npos)
        << "evicted span survived: " << i;
  for (int i = 6; i < 10; ++i)
    EXPECT_NE(out.find("test.ring" + std::to_string(i)), std::string::npos)
        << "recent span missing: " << i;
}

// ===========================================================================
// Binary-level contract
// ===========================================================================

std::pair<std::string, int> run_command(const std::string& cmd) {
  FILE* pipe = popen((cmd + " 2>/dev/null").c_str(), "r");
  if (!pipe) return {"", -1};
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  const int status = pclose(pipe);
  return {out, WIFEXITED(status) ? WEXITSTATUS(status) : -1};
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

std::string tmp_file(const std::string& stem) {
  return (fs::temp_directory_path() /
          (stem + "." + std::to_string(getpid()) + ".tmp"))
      .string();
}

/// Cut the volatile section (always the last top-level key) and close the
/// object — the documented textual strip, equal to to_json(false).
std::string strip_volatile(const std::string& json) {
  const std::string marker = ",\n  \"volatile\": {";
  const size_t pos = json.find(marker);
  if (pos == std::string::npos) return json;
  return json.substr(0, pos) + "\n}\n";
}

bool update_golden() {
  const char* env = std::getenv("UPDATE_GOLDEN");
  return env && *env && std::string(env) != "0";
}

/// Compare a stable metrics section with tests/golden/<id>.golden, or
/// rewrite the golden under UPDATE_GOLDEN=1.
void expect_metrics_golden(const std::string& id, const std::string& stable) {
  const std::string golden =
      std::string(DEEPMC_SOURCE_DIR) + "/tests/golden/" + id + ".golden";
  if (update_golden()) {
    std::ofstream f(golden, std::ios::binary);
    ASSERT_TRUE(f.good()) << "cannot write " << golden;
    f << stable;
    return;
  }
  ASSERT_TRUE(fs::exists(golden))
      << "missing " << golden
      << " — regenerate with UPDATE_GOLDEN=1 ctest -R ObsCli";
  EXPECT_EQ(read_file(golden), stable)
      << "stable metrics diverged from " << golden
      << "\nIf the change is intentional, regenerate with UPDATE_GOLDEN=1.";
}

TEST(ObsCli, MetricsStableAcrossJobsAndMatchesGolden) {
  // The flight recorder and span tracer ride along (--flight-out /
  // --trace-out): both are volatile-only channels, so the stable metrics
  // section — and its golden — must not move with them enabled.
  const std::string out = tmp_file("deepmc_metrics");
  const std::string flight = tmp_file("deepmc_metrics_flight");
  const std::string trace = tmp_file("deepmc_metrics_trace");
  std::vector<std::string> stable;
  for (const char* jobs : {"1", "4", "16"}) {
    const std::string cmd = std::string("\"") + DEEPMC_BIN +
                            "\" --crashsim --corpus pmdk/btree_map --jobs " +
                            jobs + " --metrics-out \"" + out +
                            "\" --flight-out \"" + flight +
                            "\" --trace-out \"" + trace + "\"";
    auto [report, exit_code] = run_command(cmd);
    ASSERT_GE(exit_code, 0) << cmd;
    ASSERT_LT(exit_code, 64) << cmd;
    const std::string json = read_file(out);
    ASSERT_FALSE(json.empty()) << "no metrics written by: " << cmd;
    EXPECT_NE(json.find("\"schema\": \"deepmc-metrics-v1\""),
              std::string::npos);
    // The ride-along flight dump exists and is line-oriented JSONL.
    const std::string jsonl = read_file(flight);
    ASSERT_FALSE(jsonl.empty()) << "no flight dump written by: " << cmd;
    EXPECT_EQ(jsonl.compare(0, 8, "{\"seq\": "), 0);
    EXPECT_NE(jsonl.find("\"kind\": \"unit.finish\""), std::string::npos);
    stable.push_back(strip_volatile(json));
  }
  for (const std::string& f : {out, flight, trace}) std::remove(f.c_str());
  EXPECT_EQ(stable[0], stable[1]) << "stable metrics differ --jobs 1 vs 4";
  EXPECT_EQ(stable[0], stable[2]) << "stable metrics differ --jobs 1 vs 16";

  expect_metrics_golden("metrics_corpus_pmdk_btree_map", stable[0]);
}

TEST(ObsCli, DynamicMetricsMatchGolden) {
  // Pins every rt.* counter of a --dynamic run (instrumented events,
  // strands, epochs, fences, shadow words, findings) next to the
  // static/crashsim pipeline counters.
  const std::string out = tmp_file("deepmc_dynamic_metrics");
  std::vector<std::string> stable;
  for (const char* jobs : {"1", "4"}) {
    const std::string cmd = std::string("\"") + DEEPMC_BIN +
                            "\" --dynamic --corpus pmdk/hashmap_atomic --jobs " +
                            jobs + " --metrics-out \"" + out + "\"";
    auto [report, exit_code] = run_command(cmd);
    ASSERT_GE(exit_code, 0) << cmd;
    ASSERT_LT(exit_code, 64) << cmd;
    const std::string json = read_file(out);
    ASSERT_FALSE(json.empty()) << "no metrics written by: " << cmd;
    EXPECT_NE(json.find("\"rt.shadow_words_total\""), std::string::npos);
    stable.push_back(strip_volatile(json));
  }
  std::remove(out.c_str());
  EXPECT_EQ(stable[0], stable[1]) << "stable metrics differ --jobs 1 vs 4";
  expect_metrics_golden("metrics_dynamic_corpus_pmdk_hashmap_atomic",
                        stable[0]);
}

TEST(ObsCli, TraceOutIsLoadableChromeTraceJson) {
  const std::string out = tmp_file("deepmc_trace");
  const std::string cmd = std::string("\"") + DEEPMC_BIN +
                          "\" --crashsim --corpus pmdk/btree_map --jobs 4 "
                          "--trace-out \"" + out + "\"";
  auto [report, exit_code] = run_command(cmd);
  ASSERT_GE(exit_code, 0) << cmd;
  ASSERT_LT(exit_code, 64) << cmd;
  const std::string json = read_file(out);
  std::remove(out.c_str());
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  // The pipeline's phase spans and thread names must be present.
  for (const char* needle :
       {"\"driver.run\"", "\"unit.analyze\"", "\"dsa.build\"",
        "\"trace.collect\"", "\"root.check\"", "\"crashsim.enumerate\"",
        "\"pool.task\"", "\"thread_name\"", "\"worker-0\"", "\"ph\": \"X\""})
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
}

TEST(ObsCli, ReportByteIdenticalWithObservabilityOn) {
  const std::string mdir = tmp_file("deepmc_obsrun");
  for (const char* jobs : {"1", "8"}) {
    const std::string base = std::string("\"") + DEEPMC_BIN +
                             "\" --crashsim --corpus pmdk/btree_map "
                             "--corpus pmfs/symlink --jobs " + jobs;
    auto [plain, plain_exit] = run_command(base);
    auto [with_obs, obs_exit] =
        run_command(base + " --stats --metrics-out \"" + mdir +
                    ".m\" --trace-out \"" + mdir + ".t\" --prom-out \"" +
                    mdir + ".p\" --flight-out \"" + mdir + ".f\"");
    EXPECT_EQ(plain_exit, obs_exit) << "--jobs " << jobs;
    EXPECT_EQ(plain, with_obs)
        << "report changed with observability on at --jobs " << jobs;
  }
  for (const char* ext : {".m", ".t", ".p", ".f"})
    std::remove((mdir + ext).c_str());
}

}  // namespace
}  // namespace deepmc
