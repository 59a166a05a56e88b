// Multi-path behaviour of the static checker (paper §4.3): the Table 4/5
// rules run over every bounded trace of every root, and the report keeps
// the first trace's warning per (rule, file, line).
//
//   * CheckerGolden.MultiPathShapesMatchGolden pins the text report and
//     the trace count over many-path shapes (serve-style diamond chains,
//     fat 8-diamond roots, a root past the path cap, a callee with more
//     paths than are spliced, paths that disagree, generated programs)
//     against tests/golden/checker_paths.golden. Regenerate after an
//     intentional change with
//       UPDATE_GOLDEN=1 ctest --test-dir build -R CheckerGolden
//     and review the diff.
//   * CheckerPaths.* check that nothing one path's scan leaves behind
//     reaches the next path's scan, and that the first path's message is
//     the one reported.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/static_checker.h"
#include "gen/generator.h"
#include "ir/parser.h"
#include "ir/verifier.h"
#include "support/str.h"

namespace deepmc::core {
namespace {

using ir::parse_module;

constexpr PersistencyModel kModels[] = {PersistencyModel::kStrict,
                                        PersistencyModel::kEpoch,
                                        PersistencyModel::kStrand};

CheckResult check(const std::string& text, PersistencyModel model) {
  auto m = parse_module(text);
  ir::verify_or_throw(*m);
  return check_module(*m, model);
}

/// A perfbench serve-edits root: one record driven through `diamonds`
/// diamonds with two store+flush pairs per arm, then an unlocated
/// flush+fence.
std::string serve_root(size_t root, size_t diamonds) {
  std::string out = strformat("define void @r%zu() {\nentry:\n", root);
  out += "  %r = pm.alloc %rec\n  %f = gep %r, 0\n";
  size_t line = 1;
  out += strformat("  store i64 7, %%f !loc(\"edits.c\", %zu)\n", line++);
  out += "  br label %d0\n";
  for (size_t d = 0; d < diamonds; ++d) {
    out += strformat("d%zu:\n  %%v%zu = load %%f\n  %%c%zu = lt %%v%zu, 5\n",
                     d, d, d, d);
    out += strformat("  br %%c%zu, label %%d%zua, label %%d%zub\n", d, d, d);
    for (const char arm : {'a', 'b'}) {
      out += strformat("d%zu%c:\n", d, arm);
      for (int s = 0; s < 2; ++s) {
        out += strformat("  store i64 %zu, %%f !loc(\"edits.c\", %zu)\n",
                         line, 100 * root + line);
        ++line;
        out += "  pm.flush %f, 8\n";
      }
      out += strformat("  br label %%d%zue\n", d);
    }
    out += strformat("d%zue:\n", d);
    out += d + 1 < diamonds ? strformat("  br label %%d%zu\n", d + 1)
                            : std::string("  br label %done\n");
  }
  out += "done:\n  pm.flush %f, 8\n  pm.fence\n  ret\n}\n\n";
  return out;
}

/// A bench_gates serve root: four store+flush pairs per arm.
std::string fat_root(size_t n, size_t diamonds, size_t line_base) {
  std::string out = strformat("define void @root%zu() {\n", n);
  out += "entry:\n  %r = pm.alloc %rec\n  %f = gep %r, 0\n";
  out += strformat("  store i64 %zu, %%f !loc(\"fat.c\", %zu)\n", n + 1,
                   line_base + 1);
  out += "  br label %d0\n";
  for (size_t d = 0; d < diamonds; ++d) {
    out += strformat("d%zu:\n  %%v%zu = load %%f\n  %%c%zu = lt %%v%zu, 5\n",
                     d, d, d, d);
    out += strformat("  br %%c%zu, label %%d%zua, label %%d%zub\n", d, d, d);
    for (const bool taken : {true, false}) {
      out += strformat("d%zu%c:\n", d, taken ? 'a' : 'b');
      for (size_t s = 0; s < 4; ++s) {
        out += strformat("  store i64 %zu, %%f !loc(\"fat.c\", %zu)\n",
                         d + s + (taken ? 2 : 3),
                         line_base + 8 * d + s + (taken ? 2 : 40));
        out += "  pm.flush %f, 8\n";
      }
      out += strformat("  br label %%d%zue\n", d);
    }
    out += strformat("d%zue:\n", d);
    out += d + 1 < diamonds ? strformat("  br label %%d%zu\n", d + 1)
                            : std::string("  br label %done\n");
  }
  out += "done:\n  pm.flush %f, 8\n  pm.fence\n  ret\n}\n\n";
  return out;
}

/// `diamonds` diamonds whose first false arm holds an unflushed store
/// (cap.c:<line_base>); every other arm stores and persists.
std::string capped_root(const std::string& name, size_t diamonds,
                        size_t line_base) {
  std::string out = strformat("define void @%s(i64 %%x) {\n", name.c_str());
  out += "entry:\n  %r = pm.alloc %rec\n  %f = gep %r, 0\n  %g = gep %r, 1\n";
  out += "  br label %d0\n";
  for (size_t d = 0; d < diamonds; ++d) {
    out += strformat("d%zu:\n  %%c%zu = eq %%x, %zu\n", d, d, d);
    out += strformat("  br %%c%zu, label %%d%zua, label %%d%zub\n", d, d, d);
    out += strformat("d%zua:\n  store i64 1, %%f !loc(\"cap.c\", %zu)\n",
                     d, line_base + 2 * d + 1);
    out += "  pm.persist %f, 8\n";
    out += strformat("  br label %%d%zue\n", d);
    out += strformat("d%zub:\n  store i64 2, %%g !loc(\"cap.c\", %zu)\n",
                     d, d == 0 ? line_base : line_base + 2 * d + 2);
    if (d > 0) out += "  pm.persist %g, 8\n";
    out += strformat("  br label %%d%zue\n", d);
    out += strformat("d%zue:\n", d);
    out += d + 1 < diamonds ? strformat("  br label %%d%zu\n", d + 1)
                            : std::string("  br label %done\n");
  }
  out += "done:\n  pm.fence\n  ret\n}\n\n";
  return out;
}

/// A callee with 2^3 paths, called twice from one root: only its first
/// max_callee_paths (4) paths are spliced at each site, so the root sees
/// 16 paths and never the callee's b0 arm (callee.c:2, unflushed).
const char* const kCalleeVariants = R"(
struct %rec { i64, i64 }
define void @upd(%rec* %r, i64 %x) {
entry:
  %f = gep %r, 0
  %g = gep %r, 1
  %k0 = eq %x, 0
  br %k0, label %a0, label %b0
a0:
  store i64 1, %f !loc("callee.c", 1)
  pm.flush %f, 8 !loc("callee.c", 11)
  br label %d1
b0:
  store i64 2, %g !loc("callee.c", 2)
  br label %d1
d1:
  %k1 = eq %x, 1
  br %k1, label %a1, label %b1
a1:
  store i64 3, %f !loc("callee.c", 3)
  pm.flush %f, 8 !loc("callee.c", 13)
  br label %d2
b1:
  store i64 4, %g !loc("callee.c", 4)
  pm.flush %g, 8 !loc("callee.c", 14)
  br label %d2
d2:
  %k2 = eq %x, 2
  br %k2, label %a2, label %b2
a2:
  store i64 5, %f !loc("callee.c", 5)
  br label %d3
b2:
  pm.flush %r, 16 !loc("callee.c", 16)
  br label %d3
d3:
  ret
}
define void @caller(i64 %x) {
entry:
  %r = pm.alloc %rec
  call @upd(%r, %x)
  pm.fence !loc("callee.c", 20)
  call @upd(%r, %x)
  pm.fence !loc("callee.c", 21)
  ret
}
)";

/// Paths through one root that disagree: the number of flushed writes at
/// one fence (3 on the first path, 2 on the second), a transaction that
/// is empty on one path only, and a flush that is fenced on one path only.
const char* const kDisagreeing = R"(
struct %rec { i64, i64 }
define void @counts(i64 %x) {
entry:
  %r = pm.alloc %rec
  %f = gep %r, 0
  %g = gep %r, 1
  %k = eq %x, 0
  br %k, label %three, label %two
three:
  store i64 1, %f !loc("disagree.c", 1)
  pm.flush %f, 8
  store i64 2, %g !loc("disagree.c", 2)
  pm.flush %g, 8
  store i64 3, %f !loc("disagree.c", 3)
  pm.flush %f, 8
  br label %join
two:
  store i64 4, %f !loc("disagree.c", 4)
  pm.flush %f, 8
  store i64 5, %g !loc("disagree.c", 5)
  pm.flush %g, 8
  br label %join
join:
  pm.fence !loc("disagree.c", 6)
  ret
}
define void @maybe_empty_tx(i64 %x) {
entry:
  %r = pm.alloc %rec
  %f = gep %r, 0
  tx.begin !loc("disagree.c", 10)
  %k = eq %x, 0
  br %k, label %write, label %skip
write:
  tx.add %r, 16 !loc("disagree.c", 11)
  store i64 1, %f !loc("disagree.c", 12)
  br label %join
skip:
  br label %join
join:
  pm.flush %f, 8 !loc("disagree.c", 13)
  tx.end !loc("disagree.c", 14)
  pm.fence
  ret
}
define void @maybe_fenced(i64 %x) {
entry:
  %r = pm.alloc %rec
  %f = gep %r, 0
  %g = gep %r, 1
  store i64 1, %f !loc("disagree.c", 20)
  pm.flush %f, 8 !loc("disagree.c", 21)
  %k = eq %x, 0
  br %k, label %fenced, label %open
fenced:
  pm.fence !loc("disagree.c", 22)
  br label %join
open:
  br label %join
join:
  tx.begin !loc("disagree.c", 23)
  tx.add %r, 16
  store i64 2, %g !loc("disagree.c", 24)
  tx.end !loc("disagree.c", 25)
  pm.fence
  ret
}
define void @maybe_fenced_at_end(i64 %x) {
entry:
  %r = pm.alloc %rec
  %f = gep %r, 0
  store i64 1, %f !loc("disagree.c", 30)
  pm.flush %f, 8 !loc("disagree.c", 31)
  %k = eq %x, 0
  br %k, label %fenced, label %open
fenced:
  pm.fence !loc("disagree.c", 32)
  ret
open:
  ret
}
)";

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

// Regenerate after an intentional checker change with
//   UPDATE_GOLDEN=1 ctest --test-dir build -R CheckerGolden
// and review the diff of tests/golden/checker_paths.golden.
TEST(CheckerGolden, MultiPathShapesMatchGolden) {
  std::vector<std::pair<std::string, std::string>> cases;
  {
    std::string text = "module \"serve_edits\"\nstruct %rec { i64, i64 }\n\n";
    const size_t diamonds[] = {5, 6, 7, 8, 5, 6, 7, 8};
    for (size_t r = 0; r < 8; ++r) text += serve_root(r, diamonds[r]);
    cases.emplace_back("serve_edits", text);
  }
  {
    std::string text = "module \"fat_roots\"\nstruct %rec { i64, i64 }\n\n";
    for (size_t n = 0; n < 3; ++n) text += fat_root(n, 8, 100 * n);
    text += fat_root(3, 7, 300);
    cases.emplace_back("fat_roots", text);
  }
  {
    std::string text = "module \"past_cap\"\nstruct %rec { i64, i64 }\n\n";
    text += capped_root("eight", 8, 100);
    text += capped_root("nine", 9, 200);
    text += capped_root("ten", 10, 300);
    cases.emplace_back("past_cap", text);
  }
  cases.emplace_back("callee_variants", kCalleeVariants);
  cases.emplace_back("disagreeing_paths", kDisagreeing);

  std::ostringstream out;
  for (const auto& [name, text] : cases) {
    for (const PersistencyModel model : kModels) {
      out << "== " << name << " -" << model_name(model) << "\n";
      check(text, model).print(out);
    }
  }
  for (uint64_t seed = 0; seed < 200; ++seed) {
    gen::GenOptions opts;
    opts.seed = seed;
    const gen::GeneratedProgram prog = gen::generate_program(opts);
    out << "== " << prog.name << " -" << model_name(prog.model) << "\n";
    check_module(*prog.module, prog.model).print(out);
  }

  const std::string golden =
      std::string(DEEPMC_SOURCE_DIR) + "/tests/golden/checker_paths.golden";
  const char* env = std::getenv("UPDATE_GOLDEN");
  if (env && *env && std::string(env) != "0") {
    std::ofstream f(golden, std::ios::binary);
    ASSERT_TRUE(f.good()) << "cannot write " << golden;
    f << out.str();
    return;
  }
  ASSERT_TRUE(std::filesystem::exists(golden)) << "missing " << golden;
  EXPECT_EQ(read_file(golden), out.str())
      << "checker output diverged from " << golden
      << "\nIf the change is intentional, regenerate with UPDATE_GOLDEN=1.";
}

/// (rule, line, message) of every warning, in report order.
std::vector<std::string> summary(const CheckResult& r) {
  std::vector<std::string> out;
  for (const Warning& w : r.warnings())
    out.push_back(w.rule + " @" + std::to_string(w.loc.line) + ": " +
                  w.message);
  return out;
}

// Each root branches on %c. The first path (the true arm) leaves scan
// state behind: writes, flushes, an open frame, a sibling summary, a
// region end still owed a fence, or a write still waiting for a fence.
// The second path would report at one of its own lines only if that
// state reached its scan; its expected report is exactly what it shows
// scanned alone.
TEST(CheckerPaths, NoStateLeaksBetweenPaths) {
  const CheckResult r = check(R"(
struct %o { i64, i64 }
define void @leak_writes(i64 %c) {
entry:
  %p = pm.alloc %o
  %f0 = gep %p, 0
  %k = eq %c, 0
  br %k, label %a, label %b
a:
  store i64 1, %f0 !loc("paths.c", 11)
  pm.persist %f0, 8
  ret
b:
  pm.persist %p, 16 !loc("paths.c", 12)
  ret
}
define void @leak_flushes(i64 %c) {
entry:
  %p = pm.alloc %o
  %f0 = gep %p, 0
  %k = eq %c, 0
  br %k, label %a, label %b
a:
  store i64 1, %f0 !loc("paths.c", 21)
  pm.persist %f0, 8
  ret
b:
  pm.flush %f0, 8 !loc("paths.c", 22)
  pm.fence
  ret
}
define void @leak_frames(i64 %c) {
entry:
  %p = pm.alloc %o
  %f0 = gep %p, 0
  %k = eq %c, 0
  br %k, label %a, label %b
a:
  tx.begin !loc("paths.c", 31)
  tx.add %p, 16
  store i64 1, %f0 !loc("paths.c", 32)
  pm.persist %f0, 8
  ret
b:
  store i64 2, %f0 !loc("paths.c", 33)
  pm.persist %f0, 8 !loc("paths.c", 34)
  ret
}
define void @leak_siblings(i64 %c) {
entry:
  %p = pm.alloc %o
  %f0 = gep %p, 0
  %f1 = gep %p, 1
  %k = eq %c, 0
  br %k, label %a, label %b
a:
  tx.begin !loc("paths.c", 41)
  tx.add %p, 16
  store i64 1, %f0 !loc("paths.c", 42)
  tx.end
  pm.fence
  ret
b:
  tx.begin !loc("paths.c", 43)
  tx.add %p, 16
  store i64 2, %f1 !loc("paths.c", 44)
  tx.end
  pm.fence
  ret
}
define void @leak_owed_fence(i64 %c) {
entry:
  %p = pm.alloc %o
  %f0 = gep %p, 0
  %k = eq %c, 0
  br %k, label %a, label %b
a:
  tx.begin !loc("paths.c", 51)
  tx.add %p, 16
  store i64 1, %f0 !loc("paths.c", 52)
  pm.flush %f0, 8
  tx.end
  ret
b:
  tx.begin !loc("paths.c", 53)
  tx.add %p, 16
  store i64 2, %f0 !loc("paths.c", 54)
  tx.end
  pm.fence
  ret
}
define void @leak_unfenced_writes(i64 %c) {
entry:
  %p = pm.alloc %o
  %f0 = gep %p, 0
  %f1 = gep %p, 1
  %k = eq %c, 0
  br %k, label %a, label %b
a:
  store i64 1, %f0 !loc("paths.c", 61)
  ret
b:
  store i64 2, %f1 !loc("paths.c", 62)
  pm.flush %f1, 8
  pm.fence !loc("paths.c", 63)
  ret
}
)",
                              PersistencyModel::kStrict);
  EXPECT_EQ(r.traces_checked, 12u);
  const std::vector<std::string> expected = {
      "perf.flush-unmodified @12: flush of data with no preceding write "
      "(writing back unmodified data)",
      "perf.flush-unmodified @22: flush of data with no preceding write "
      "(writing back unmodified data)",
      "strict.unflushed-write @61: modified persistent data is never flushed "
      "(lost on crash)",
  };
  EXPECT_EQ(summary(r), expected);
}

// Two paths reach the fence at line 7 with 3 and 2 flushed writes; one
// path before them writes without a fence. Dedup keeps the first path's
// message per (rule, file, line), so the report says 3 there, and 2 at
// line 17, where the 2-write path comes first.
TEST(CheckerPaths, FirstPathMessageWins) {
  std::string text = "struct %o { i64, i64 }\n";
  for (const auto& [name, base, first] :
       {std::tuple{"three_first", 0, 3}, std::tuple{"two_first", 10, 2}}) {
    text += strformat(R"(
define void @%s(i64 %%c, i64 %%d) {
entry:
  %%p = pm.alloc %%o
  %%f0 = gep %%p, 0
  %%f1 = gep %%p, 1
  %%k = eq %%c, 0
  br %%k, label %%skip, label %%main
skip:
  store i64 1, %%f0 !loc("first.c", %d)
  pm.flush %%f0, 8
  ret
main:
  %%j = eq %%d, 0
  br %%j, label %%x, label %%y
)",
                      name, base + 1);
    for (const int writes : {first, 5 - first}) {
      text += writes == first ? "x:\n" : "y:\n";
      for (int w = 0; w < writes; ++w)
        text += strformat("  store i64 2, %%f%d !loc(\"first.c\", %d)\n",
                          w % 2, base + (writes == 3 ? 2 : 5) + w);
      text += "  pm.flush %f0, 8\n  pm.flush %f1, 8\n  br label %join\n";
    }
    text += strformat("join:\n  pm.fence !loc(\"first.c\", %d)\n  ret\n}\n",
                      base + 7);
  }
  const CheckResult r = check(text, PersistencyModel::kStrict);
  const std::vector<const Warning*> multiple =
      r.by_rule("strict.multiple-writes");
  ASSERT_EQ(multiple.size(), 2u);
  EXPECT_EQ(multiple[0]->loc.line, 7u);
  EXPECT_EQ(multiple[0]->message,
            "3 writes made durable by a single persist barrier; the strict "
            "model requires one barrier per persist");
  EXPECT_EQ(multiple[1]->loc.line, 17u);
  EXPECT_EQ(multiple[1]->message,
            "2 writes made durable by a single persist barrier; the strict "
            "model requires one barrier per persist");
  // The skip paths' writes are flushed but never fenced; nothing else.
  EXPECT_EQ(r.count(), 4u);
  EXPECT_EQ(r.by_rule("strict.missing-barrier").size(), 2u);
}

}  // namespace
}  // namespace deepmc::core
