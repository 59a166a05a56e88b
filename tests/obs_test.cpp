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

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "support/thread_pool.h"

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
  for (const auto& e : obs::registry().snapshot().counters) {
    if (e.name == "test.disabled_total") {
      EXPECT_EQ(e.value, 0u);
    }
  }
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
  for (const auto& e : obs::registry().snapshot().counters) {
    if (e.name == "test.aaa_total") {
      EXPECT_EQ(e.value, 3u);
    }
  }
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

/// The snapshot value of the scalar metric `name` (0 when unregistered).
uint64_t scalar_value(const std::string& name) {
  const obs::Snapshot snap = obs::registry().snapshot();
  for (const auto* list : {&snap.counters, &snap.gauges})
    for (const auto& e : *list)
      if (e.name == name) return e.value;
  return 0;
}

TEST(ObsRegistry, GaugeKeepsTheLastWriteFromAnyThread) {
  // A gauge is one cell that only shard 0 holds: two threads on shards of
  // their own set it in turn, and the later value wins, not the sum.
  ObsSession session;
  obs::Gauge g = obs::registry().gauge("test.gauge", obs::Volatility::kStable,
                                       "last write wins");
  std::thread([&g] {
    obs::set_thread_label(2001, "test-gauge-a");
    g.set(7);
  }).join();
  std::thread([&g] {
    obs::set_thread_label(2002, "test-gauge-b");
    g.set(5);
  }).join();
  EXPECT_EQ(scalar_value("test.gauge"), 5u);
  obs::registry().reset();
  EXPECT_EQ(scalar_value("test.gauge"), 0u);
}

TEST(ObsRegistry, CountsOutliveThePoolsThatRecordedThem) {
  // Shards belong to the registry, not to threads: three 4-worker pools
  // come and go, and every count their workers made stays.
  ObsSession session;
  obs::Counter c = obs::registry().counter(
      "test.pool_tasks_total", obs::Volatility::kStable, "tasks run");
  for (int round = 0; round < 3; ++round) {
    support::ThreadPool pool(4);
    std::vector<std::future<void>> done;
    for (int i = 0; i < 100; ++i)
      done.push_back(pool.submit([&c] { c.inc(); }));
    for (auto& f : done) f.get();
  }
  EXPECT_EQ(scalar_value("test.pool_tasks_total"), 300u);
}

TEST(ObsRegistry, SnapshotWhileRecordingIsRaceFree) {
  // Four labeled threads make their shards and record into them while
  // the main thread snapshots; under TSan (scripts/check.sh --tsan) this
  // must run clean, and no count may be lost.
  ObsSession session;
  obs::Counter c = obs::registry().counter(
      "test.live_total", obs::Volatility::kStable, "live incs");
  obs::Histogram h = obs::registry().histogram(
      "test.live_hist", obs::Volatility::kStable, "live observations",
      {10, 100});
  constexpr uint32_t kThreads = 4;
  constexpr uint64_t kOps = 20000;
  std::atomic<uint32_t> started{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      obs::set_thread_label(3001 + t, "test-live-" + std::to_string(t));
      started.fetch_add(1);
      for (uint64_t i = 0; i < kOps; ++i) {
        c.inc();
        h.observe(i % 200);
      }
    });
  while (started.load() < kThreads) std::this_thread::yield();
  for (int i = 0; i < 100; ++i) (void)obs::registry().snapshot();
  for (auto& t : threads) t.join();

  EXPECT_EQ(scalar_value("test.live_total"), kThreads * kOps);
  obs::HistogramValue v;
  for (const auto& e : obs::registry().snapshot().histograms)
    if (e.name == "test.live_hist") v = e.value;
  EXPECT_EQ(v.count, kThreads * kOps);
  // Each thread observes 0..199 kOps / 200 times over.
  EXPECT_EQ(v.sum, kThreads * (kOps / 200) * (199 * 200 / 2));
}

TEST(ObsFlight, DisarmedRecordsNothing) {
  obs::flight().disarm();
  EXPECT_FALSE(obs::flight().armed());
  obs::flight().record("test.never");
  obs::flight().record("test.never", {{"k", "v"}, {"n", 3}});
  EXPECT_TRUE(obs::flight().events().empty());
}

TEST(ObsFlight, RingKeepsLastKInOrder) {
  // The eviction-order contract: recording k+m events into capacity k
  // keeps exactly the last k, in seq order — deterministic, not
  // scheduling-dependent (single recording thread here).
  obs::flight().arm(/*capacity=*/8);
  for (int i = 0; i < 20; ++i) obs::flight().record("test.ring", {{"i", i}});
  const std::vector<obs::Event> events = obs::flight().events();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);  // newest 8 of seq 0..19
    std::string detail;
    events[i].args.append_json(detail);
    EXPECT_EQ(detail, "{\"i\": " + std::to_string(12 + i) + "}");
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

  const std::vector<obs::Event> events = obs::flight().events();
  ASSERT_EQ(events.size(), kCap);
  constexpr uint64_t kTotal = kThreads * kPerThread;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
    EXPECT_GE(events[i].seq, kTotal - kCap);
    EXPECT_LT(events[i].seq, kTotal);
  }
  obs::flight().disarm();
}

TEST(ObsFlight, DumpJsonlIsOneObjectPerLine) {
  obs::flight().arm(16);
  obs::flight().record("test.plain");
  obs::flight().record("test.detail", {{"unit", "a\"b"}, {"bytes", 128}});
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
  // Args render as one escaped object; an event without args omits it.
  EXPECT_NE(out.find("\"detail\": {\"unit\": \"a\\\"b\", \"bytes\": 128}"),
            std::string::npos);
  EXPECT_EQ(out.find("test.plain\", \"detail\""), std::string::npos);
}

TEST(ObsFlight, RearmResetsSequenceAndClock) {
  obs::flight().arm(4);
  obs::flight().record("test.first");
  obs::flight().arm(4);  // restart drops prior events, re-zeros seq
  obs::flight().record("test.second");
  const std::vector<obs::Event> events = obs::flight().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_STREQ(events[0].name, "test.second");
  obs::flight().disarm();
}

/// Two string values the recorders must keep whole: one past any inline
/// buffer, one holding every class of character JSON escapes.
const std::string kLongValue = "a-value-well-past-fifteen-bytes/0123456789";
const std::string kEscValue = "q\"b\\s\nx\x01y";
/// kEscValue as json_quote renders it (the report's escapes).
const std::string kEscJson = "\"q\\\"b\\\\s\\nx\\u0001y\"";

TEST(ObsFlight, IntegersRenderExactly) {
  // Integer args are stored as integers and printed digit for digit: a
  // word address above 2^53, INT64_MIN and a byte count of 10^6 or more
  // would each lose digits through a double.
  obs::flight().arm(4);
  obs::flight().record("test.ints",
                       {{"big", uint64_t{(uint64_t{1} << 53) + 1}},
                        {"min", INT64_MIN},
                        {"bytes", 1234567},
                        {"real", 2.5}});
  std::ostringstream os;
  obs::flight().dump_jsonl(os);
  obs::flight().disarm();
  EXPECT_NE(os.str().find("\"detail\": {\"big\": 9007199254740993, "
                          "\"min\": -9223372036854775808, "
                          "\"bytes\": 1234567, \"real\": 2.500}}"),
            std::string::npos)
      << os.str();
}

TEST(ObsFlight, ReusedSlotRendersOnlyItsOwnArgs) {
  // Capacity 2 on one thread: the third event overwrites the first's
  // slot, whose buffer it reuses; none of the old args may show through.
  obs::flight().arm(2);
  obs::flight().record("test.wide",
                       {{"a", kLongValue}, {"b", 7}, {"c", "third"}});
  obs::flight().record("test.filler");
  obs::flight().record("test.narrow", {{"only", "x"}});
  const std::vector<obs::Event> events = obs::flight().events();
  obs::flight().disarm();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[1].name, "test.narrow");
  std::string detail;
  events[1].args.append_json(detail);
  EXPECT_EQ(detail, "{\"only\": \"x\"}");
}

TEST(ObsFlight, RearmWithSmallerCapacityKeepsOnlyNewEvents) {
  // arm() keeps the slots of the previous arming for reuse: re-armed at
  // capacity 2, the ring wraps at 2 although 8 slots exist, the seq
  // restarts at 0, and no reused slot shows its old event's args.
  obs::flight().arm(8);
  for (int i = 0; i < 8; ++i)
    obs::flight().record("test.old", {{"a", kLongValue},
                                      {"b", i},
                                      {"c", kEscValue},
                                      {"d", 2.5}});
  obs::flight().arm(2);
  obs::flight().record("test.new0", {{"only", "x"}});
  obs::flight().record("test.new1");
  obs::flight().record("test.new2", {{"n", 7}});
  const std::vector<obs::Event> events = obs::flight().events();
  obs::flight().disarm();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_STREQ(events[0].name, "test.new1");
  EXPECT_STREQ(events[1].name, "test.new2");
  EXPECT_TRUE(events[0].args.empty());
  std::string detail;
  events[1].args.append_json(detail);
  EXPECT_EQ(detail, "{\"n\": 7}");
}

TEST(ObsFlight, LongAndEscapedValuesComeBackWhole) {
  obs::flight().arm(4);
  {
    // Args are copied before record() returns: the temporaries may die.
    obs::flight().record("test.strings", {{"long", std::string(kLongValue)},
                                          {"esc", std::string(kEscValue)}});
  }
  std::ostringstream os;
  obs::flight().dump_jsonl(os);
  obs::flight().disarm();
  EXPECT_NE(os.str().find("\"detail\": {\"long\": \"" + kLongValue +
                          "\", \"esc\": " + kEscJson + "}}\n"),
            std::string::npos)
      << os.str();
}

TEST(ObsTracer, SpansAreFreeWhenInactive) {
  // No tracer started: spans, with or without args, record nothing.
  EXPECT_FALSE(obs::tracer().armed());
  { obs::Span s("test.span", "test"); }
  { obs::Span s("test.span", "test", {{"k", "v"}, {"n", 1.5}}); }
  std::ostringstream os;
  obs::tracer().write_trace(os);
  EXPECT_EQ(os.str().find("test.span"), std::string::npos);
}

TEST(ObsTracer, RecordsAndDiscardsSpans) {
  obs::set_enabled(true);
  obs::tracer().arm(obs::Recorder::kUnbounded);
  {
    obs::Span s("test.traced", "test", {{"root", "main"}});
  }
  std::ostringstream os;
  obs::tracer().write_trace(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"test.traced\""), std::string::npos);
  EXPECT_NE(out.find("\"root\": \"main\""), std::string::npos);
  obs::tracer().disarm();  // discards
  obs::set_enabled(false);
  std::ostringstream os2;
  obs::tracer().write_trace(os2);
  EXPECT_EQ(os2.str().find("test.traced"), std::string::npos);
}

TEST(ObsTracer, RingCapacityKeepsRecentSpans) {
  // A long-lived daemon bounds its span ring; only the newest spans
  // survive, and time-sorting makes rotation invisible.
  obs::set_enabled(true);
  obs::tracer().arm(4);
  // Span/event names require static storage duration (the tracer keeps
  // the pointer, like the Span class does with its literal names).
  static const char* kNames[10] = {
      "test.ring0", "test.ring1", "test.ring2", "test.ring3", "test.ring4",
      "test.ring5", "test.ring6", "test.ring7", "test.ring8", "test.ring9"};
  for (int i = 0; i < 10; ++i)
    obs::tracer().record(kNames[i], "test", obs::tracer().now_us(), 1.0);
  std::ostringstream os;
  obs::tracer().write_trace(os);
  obs::tracer().disarm();
  obs::set_enabled(false);
  const std::string out = os.str();
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(out.find("test.ring" + std::to_string(i)), std::string::npos)
        << "evicted span survived: " << i;
  for (int i = 6; i < 10; ++i)
    EXPECT_NE(out.find("test.ring" + std::to_string(i)), std::string::npos)
        << "recent span missing: " << i;
}

TEST(ObsTracer, ArgsComeBackWholeAndExact) {
  obs::set_enabled(true);
  obs::tracer().arm(obs::Recorder::kUnbounded);
  {
    obs::Span s("test.args", "test",
                {{"long", std::string(kLongValue)},
                 {"esc", std::string(kEscValue)},
                 {"big", uint64_t{(uint64_t{1} << 53) + 1}},
                 {"min", INT64_MIN}});
  }
  std::ostringstream os;
  obs::tracer().write_trace(os);
  obs::tracer().disarm();
  obs::set_enabled(false);
  EXPECT_NE(os.str().find("\"args\": {\"long\": \"" + kLongValue +
                          "\", \"esc\": " + kEscJson +
                          ", \"big\": 9007199254740993, "
                          "\"min\": -9223372036854775808}}"),
            std::string::npos)
      << os.str();
}

TEST(ObsTracer, RingKeepsNewestSpansAcrossThreads) {
  // --trace-ring N keeps the newest N spans overall, not N per thread:
  // two labeled threads (two shards) take turns, and the merged ring
  // holds exactly the newest N in record order.
  obs::set_enabled(true);
  obs::tracer().arm(4);
  static const char* kNames[9] = {"a0", "a1", "a2", "b0", "b1",
                                  "b2", "a3", "a4", "a5"};
  const auto record_on = [](uint32_t tid, const char* label, int from,
                            int to) {
    std::thread([=] {
      obs::set_thread_label(tid, label);
      for (int i = from; i < to; ++i)
        obs::tracer().record(kNames[i], "test", obs::tracer().now_us(), 1.0);
    }).join();
  };
  record_on(1001, "test-a", 0, 3);
  record_on(1002, "test-b", 3, 6);
  record_on(1001, "test-a", 6, 9);
  const std::vector<obs::Event> events = obs::tracer().events();
  obs::tracer().disarm();
  obs::set_enabled(false);
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 5 + i);
    EXPECT_STREQ(events[i].name, kNames[5 + i]);
    EXPECT_EQ(events[i].tid, i == 0 ? 1002u : 1001u);
  }
}

TEST(ObsTracer, WriteWhileRecordingIsRaceFree) {
  // `DMRQ trace` on a daemon started with --trace-ring writes the trace
  // while its sessions keep recording spans; under TSan
  // (scripts/check.sh --tsan) this must run clean.
  obs::set_enabled(true);
  obs::tracer().arm(16);
  std::atomic<int> started{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> recorders;
  for (int t = 0; t < 2; ++t)
    recorders.emplace_back([&started, &stop] {
      started.fetch_add(1);
      for (int i = 0; !stop.load(); ++i)
        obs::Span s("test.live", "test", {{"i", i}});
    });
  while (started.load() < 2) std::this_thread::yield();
  std::string last;
  for (int i = 0; i < 100; ++i) {
    std::ostringstream os;
    obs::tracer().write_trace(os);
    last = os.str();
  }
  stop.store(true);
  for (auto& t : recorders) t.join();
  obs::tracer().disarm();
  obs::set_enabled(false);
  size_t spans = 0;
  for (size_t pos = 0; (pos = last.find("\"ph\": \"X\"", pos)) !=
                       std::string::npos;
       ++pos)
    ++spans;
  EXPECT_LE(spans, 16u);
  EXPECT_EQ(last.substr(last.size() - 4), "\n]}\n");
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

TEST(ObsCli, StatsListEachWorkersBusyTime) {
  // Each pool thread publishes its busy time under its own label; the
  // handle is resolved once per thread, not per task.
  std::string cmd = std::string("{ \"") + DEEPMC_BIN +
                    "\" --crashsim --jobs 2 --stats";
  for (const char* m : {"pmdk/btree_map", "pmdk/hashmap_atomic", "pmfs/symlink",
                        "mnemosyne/chhash", "nvmdirect/nvm_heap"})
    cmd += std::string(" --corpus ") + m;
  cmd += " 2>&1 >/dev/null; }";
  auto [stats, exit_code] = run_command(cmd);
  ASSERT_GE(exit_code, 0) << cmd;
  ASSERT_LT(exit_code, 64) << cmd;
  EXPECT_NE(stats.find("pool.worker_busy_us.worker-0"), std::string::npos)
      << stats;
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
