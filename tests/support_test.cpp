// Tests for the support layer: string utilities, command-line flag
// parsing, deterministic RNG, accumulators — plus thread-safety of the
// runtime checker under concurrent instrumented threads (the Figure 12
// apps run multi-threaded in the paper).
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <tuple>
#include <vector>

#include "runtime/dynamic_checker.h"
#include "support/flags.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/str.h"

namespace deepmc {
namespace {

// --- strformat -----------------------------------------------------------------

TEST(StrTest, FormatBasics) {
  EXPECT_EQ(strformat("x=%d", 42), "x=42");
  EXPECT_EQ(strformat("%s/%s", "a", "b"), "a/b");
  EXPECT_EQ(strformat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(strformat("empty"), "empty");
}

TEST(StrTest, FormatLongStringsBeyondSmallBuffers) {
  std::string big(5000, 'q');
  EXPECT_EQ(strformat("%s", big.c_str()).size(), 5000u);
}

TEST(StrTest, Split) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  auto kept = split("a,b,,c", ',', /*keep_empty=*/true);
  EXPECT_EQ(kept.size(), 4u);
  EXPECT_TRUE(split("", ',').empty());
}

TEST(StrTest, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\r\nx"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StrTest, StartsWith) {
  EXPECT_TRUE(starts_with("pm.flush", "pm."));
  EXPECT_FALSE(starts_with("pm", "pm."));
}

// --- flags --------------------------------------------------------------------

/// Parses `--n VALUE` (or `--n=VALUE` when `value` is null and `arg`
/// carries it) and returns (is the flag, ok, value).
std::tuple<bool, bool, uint64_t> parse_num(const char* arg, const char* value,
                                           uint64_t max = UINT64_MAX) {
  std::vector<char*> argv{const_cast<char*>(arg)};
  if (value != nullptr) argv.push_back(const_cast<char*>(value));
  int i = 0;
  uint64_t out = 7;
  bool ok = true;
  const bool is_flag =
      support::num_flag("--n", arg, static_cast<int>(argv.size()),
                        argv.data(), i, &out, &ok, max);
  return {is_flag, ok, out};
}

TEST(FlagsTest, NumFlagTakesPlainDecimalsUpToMax) {
  using R = std::tuple<bool, bool, uint64_t>;
  EXPECT_EQ(parse_num("--n", "42"), R(true, true, 42));
  EXPECT_EQ(parse_num("--n=0", nullptr), R(true, true, 0));
  EXPECT_EQ(parse_num("--n", "18446744073709551615"),
            R(true, true, UINT64_MAX));
  EXPECT_EQ(parse_num("--n", "1024", 1024), R(true, true, 1024));
  EXPECT_EQ(parse_num("--number", "1"), R(false, true, 7));
}

TEST(FlagsTest, NumFlagRejectsSignsGarbageAndOverflow) {
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "abc", "0x10",
                          "18446744073709551616", "99999999999999999999"}) {
    const auto [is_flag, ok, out] = parse_num("--n", bad);
    EXPECT_TRUE(is_flag) << bad;
    EXPECT_FALSE(ok) << bad;
    EXPECT_EQ(out, 7u) << bad << ": a rejected value must not be stored";
  }
  EXPECT_FALSE(std::get<1>(parse_num("--n", "1025", 1024)));
  EXPECT_FALSE(std::get<1>(parse_num("--n", nullptr)));  // missing operand
}

// --- rng -----------------------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Rng a2(7), c2(8);
  EXPECT_NE(a2.next(), c2.next());
}

TEST(RngTest, BelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, ChanceRoughlyCalibrated) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, SkewedFavorsHotSet) {
  Rng rng(11);
  int hot = 0;
  const uint64_t n = 100;
  for (int i = 0; i < 10000; ++i)
    if (rng.skewed(n) < n / 5 + 1) ++hot;
  EXPECT_GT(hot, 7000);  // ~80/20 skew
}

// --- accumulator --------------------------------------------------------------------

TEST(AccumulatorTest, MeanMinMax) {
  Accumulator acc;
  EXPECT_EQ(acc.mean(), 0.0);
  acc.add(2);
  acc.add(4);
  acc.add(9);
  EXPECT_EQ(acc.n, 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min, 2.0);
  EXPECT_DOUBLE_EQ(acc.max, 9.0);
}

// --- runtime thread-safety ------------------------------------------------------------

TEST(RuntimeThreading, ConcurrentInstrumentedThreads) {
  rt::RuntimeChecker rt(core::PersistencyModel::kStrand);
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rt, t] {
      rt::StrandId s = rt.strand_begin();
      for (int i = 0; i < kOps; ++i) {
        // Disjoint address ranges per thread: no races expected; the test
        // is about data-structure integrity under concurrency.
        const uint64_t addr = 0x10000ull * (t + 1) + (i % 64) * 8;
        rt.on_write(s, addr, 8, SourceLoc("mt.c", 1));
        rt.on_read(s, addr, 8, SourceLoc("mt.c", 2));
      }
      rt.strand_end(s);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(rt.races().empty());
  auto stats = rt.stats();
  EXPECT_EQ(stats.writes_tracked, static_cast<uint64_t>(kThreads) * kOps);
  EXPECT_EQ(stats.reads_tracked, static_cast<uint64_t>(kThreads) * kOps);
  EXPECT_EQ(stats.strands_opened, static_cast<uint64_t>(kThreads));
}

TEST(RuntimeThreading, ConcurrentConflictingThreadsDetected) {
  rt::RuntimeChecker rt(core::PersistencyModel::kStrand);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&rt, t] {
      rt::StrandId s = rt.strand_begin();
      rt.on_write(s, 0x40, 8, SourceLoc("mt.c", 10 + t));
      rt.strand_end(s);
    });
  }
  for (auto& th : threads) th.join();
  // Both strands write the same word with no barrier between them.
  EXPECT_EQ(rt.races().size(), 1u);
}

}  // namespace
}  // namespace deepmc
