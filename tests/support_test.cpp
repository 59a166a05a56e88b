// Tests for the support layer: string utilities, command-line flag
// parsing, deterministic RNG, accumulators, paired timing — plus
// thread-safety of the runtime checker under concurrent instrumented
// threads (the Figure 12 apps run multi-threaded in the paper).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
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

TEST(FlagsTest, EmptyEqualsOperandIsAMissingOperand) {
  // "--n=" is the flag with its operand missing, like "--n" at the end
  // of argv: the reader matches and moves `i` to argc, so parse_flags
  // reports "missing value for --n" rather than "unknown flag --n=".
  using R = std::tuple<bool, bool, uint64_t>;
  EXPECT_EQ(parse_num("--n=", nullptr), R(true, false, 7));
  std::string arg = "--s=";
  char* argv[] = {arg.data()};
  int i = 0;
  std::string out = "kept";
  EXPECT_TRUE(support::str_flag("--s", arg, 1, argv, i, &out));
  EXPECT_EQ(i, 1);
  EXPECT_EQ(out, "kept");
}

/// Runs parse_flags over `args` (no program name) and returns its result.
std::optional<int> parse(const support::Command& cmd,
                         std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return support::parse_flags(cmd, static_cast<int>(argv.size()),
                              argv.data());
}

TEST(FlagsTest, ParseFlagsAppliesEachTargetInBothSpellings) {
  uint32_t narrow = 0;
  std::optional<uint64_t> seen;
  double real = 0;
  std::string mode = "a";
  std::vector<std::string> list, inputs;
  bool on = false;
  std::string handled;
  const support::Command cmd{
      "tool",
      {"tool [options] input..."},
      {
          {"--narrow|-n", "N", &narrow, "", 1000, 1},
          {"--seen", "N", &seen, ""},
          {"--real", "X", &real, ""},
          {"--mode", "a|b", &mode, ""},
          {"--item", "S", &list, ""},
          {"--on", nullptr, &on, ""},
          {"--handled", "S",
           [&](const std::string& v) {
             handled = v;
             return v != "bad";
           },
           ""},
      },
      [&](const std::string& in) { inputs.push_back(in); }};
  EXPECT_EQ(parse(cmd, {"--narrow=7", "x", "--seen", "0", "--real=2.5",
                        "--mode", "b", "--item=p", "--item", "q", "--on",
                        "--handled=h", "y"}),
            std::nullopt);
  EXPECT_EQ(narrow, 7u);
  EXPECT_EQ(seen, 0u);
  EXPECT_EQ(real, 2.5);
  EXPECT_EQ(mode, "b");
  EXPECT_EQ(list, (std::vector<std::string>{"p", "q"}));
  EXPECT_TRUE(on);
  EXPECT_EQ(handled, "h");
  EXPECT_EQ(inputs, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(parse(cmd, {"-n", "1000"}), std::nullopt);
  EXPECT_EQ(narrow, 1000u);
}

TEST(FlagsTest, ParseFlagsReportsEachUsageErrorAsExit64) {
  uint8_t small = 5;
  std::string mode;
  const support::Command cmd{
      "tool",
      {"tool [options]"},
      {
          {"--small", "N", &small, "", 1000, 1},
          {"--mode", "a|b", &mode, ""},
          {"--text", "S", &mode, ""},
          {"--list", nullptr, support::Exit{[] {}}, ""},
      }};
  const std::vector<std::vector<std::string>> bad_args = {
      {"--small", "256"},  // past what a uint8_t holds
      {"--small=0"},       // below the flag's minimum
      {"--small"},         // missing final operand
      {"--mode", "c"},     // not one of the listed words
      {"--text", ""},      // every operand is non-empty
      {"--text="},         // "--flag=" alone is a missing operand
      {"--bogus"},
      {"input"},  // no input handler
  };
  for (const std::vector<std::string>& bad : bad_args)
    EXPECT_EQ(parse(cmd, bad), support::kExitUsage) << bad[0];
  EXPECT_EQ(small, 5u) << "a rejected value must not be stored";
  EXPECT_EQ(parse(cmd, {"--list", "--bogus"}), 0) << "--list ends the run";
}

TEST(FlagsTest, UsageListsEveryRowUnderItsHeading) {
  uint64_t n = 0;
  bool on = false;
  const support::Command cmd{
      "tool",
      {"tool [options]", "tool other"},
      {
          {"--n", "N", &n, "a number"},
          support::heading("group"),
          {"--a-very-long-switch-name-x", nullptr, &on, "wraps"},
      },
      {},
      "notes\n"};
  char* buf = nullptr;
  size_t size = 0;
  FILE* out = open_memstream(&buf, &size);
  ASSERT_NE(out, nullptr);
  support::print_usage(cmd, out);
  std::fclose(out);
  const std::string text(buf, size);
  std::free(buf);
  EXPECT_EQ(text,
            "usage: tool [options]\n"
            "       tool other\n"
            "\n"
            "  --n N                       a number\n"
            "\n"
            "group:\n"
            "  --a-very-long-switch-name-x\n"
            "                              wraps\n"
            "\n"
            "notes\n");
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

// --- paired timing ------------------------------------------------------------------

// The bodies return fixed seconds instead of sleeping, so every count and
// figure below is known in advance.

TEST(PairedTimingTest, SampleRepeatsTheBodyUntilTheFloor) {
  for (const auto& [seconds, iterations] :
       {std::pair{0.05, 1}, {0.02, 3}, {0.007, 8}, {0.2, 1}}) {
    int calls = 0;
    const auto body = [&] {
      ++calls;
      return seconds;
    };
    EXPECT_DOUBLE_EQ(timed_sample(body), seconds) << seconds;
    EXPECT_EQ(calls, iterations) << seconds;
  }
}

TEST(PairedTimingTest, PairsAlternateAndCompareMeansPerIteration) {
  // Side a needs three 20 ms iterations per sample, side b two of 30 ms.
  std::string order;
  const PairedTiming t = time_pairs(
      [&] {
        order += 'a';
        return 0.02;
      },
      [&] {
        order += 'b';
        return 0.03;
      });
  std::string want;
  for (size_t i = 0; i < PairedTiming::kPairs; ++i)
    want += i % 2 == 0 ? "aaabb" : "bbaaa";
  EXPECT_EQ(order, want);
  ASSERT_EQ(t.a.size(), PairedTiming::kPairs);
  ASSERT_EQ(t.b.size(), PairedTiming::kPairs);
  EXPECT_DOUBLE_EQ(t.median_a(), 0.02);
  EXPECT_DOUBLE_EQ(t.median_b(), 0.03);
  EXPECT_DOUBLE_EQ(t.ratio(), 0.02 / 0.03);
}

TEST(PairedTimingTest, OneOutlierPairDoesNotMoveTheMedianRatio) {
  // Every pair reads 2x except the fourth, where side a stalls for 1 s.
  int calls = 0;
  const PairedTiming t =
      time_pairs([&] { return calls++ == 3 ? 1.0 : 0.1; }, [] { return 0.05; });
  EXPECT_DOUBLE_EQ(t.ratio(), 2.0);
  EXPECT_DOUBLE_EQ(t.median_a(), 0.1);

  // Odd and even pair counts, each with one outlier: the middle ratio, or
  // the mean of the middle two.
  PairedTiming odd{{2.0, 2.1, 9.0, 1.9, 2.2}, {1, 1, 1, 1, 1}};
  EXPECT_DOUBLE_EQ(odd.ratio(), 2.1);
  PairedTiming even{{4.0, 18.0, 3.8, 4.4}, {2, 2, 2, 2}};
  EXPECT_DOUBLE_EQ(even.ratio(), 2.1);
  EXPECT_DOUBLE_EQ(even.median_a(), 4.2);
  EXPECT_EQ(PairedTiming{}.ratio(), 0.0);
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
