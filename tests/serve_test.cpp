// Incremental analysis server tests (src/serve/).
//
// The load-bearing property is byte-identity: whatever mix of cache
// hits, seeded roots, version mismatches, corrupted entries, or injected
// faults a request hits, the response body is exactly what a fresh
// one-shot driver run over the same input prints. Everything else —
// dirty-cone scoping, protocol framing, degraded-mode recovery — is
// tested against that oracle.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/analysis_driver.h"
#include "core/report.h"
#include "core/static_checker.h"
#include "corpus/corpus.h"
#include "gen/generator.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "serve/cache.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/fingerprint.h"
#include "serve/hash.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "slow_module.h"
#include "support/faultpoint.h"
#include "support/str.h"

namespace deepmc {
namespace {

namespace fs = std::filesystem;

using serve::AnalysisService;
using serve::DiskCache;
using serve::RequestFrame;
using serve::RequestOptions;
using serve::ResponseFrame;
using serve::ServeOptions;
using serve::ServeResult;

class FaultGuard {
 public:
  FaultGuard() { support::clear_faults(); }
  ~FaultGuard() { support::clear_faults(); }
};

/// Fresh per-test cache directory (tests run as parallel ctest
/// processes, so the tag must be unique per test).
std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "deepmc_serve_" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string log_path(const std::string& dir) { return dir + "/entries.log"; }

ServeOptions cached_opts(const std::string& dir, size_t jobs = 1) {
  ServeOptions opts;
  opts.driver.jobs = jobs;
  opts.cache_dir = dir;
  return opts;
}

/// The oracle: a fresh one-shot driver run, rendered without timing.
std::string oneshot_json(const std::string& name, const std::string& text,
                         std::optional<core::PersistencyModel> model = {}) {
  core::DriverOptions opts;
  if (model) opts.model = *model;
  opts.jobs = 1;
  core::AnalysisDriver driver(opts);
  return driver.run({core::make_source_unit(name, text, model)}).json(false);
}

std::string oneshot_text(const std::string& name, const std::string& text,
                         std::optional<core::PersistencyModel> model = {}) {
  core::DriverOptions opts;
  if (model) opts.model = *model;
  opts.jobs = 1;
  core::AnalysisDriver driver(opts);
  return driver.run({core::make_source_unit(name, text, model)}).text();
}

// Two independent roots with no shared callees: two coupling groups, so
// editing one function must leave the other root's cache entry valid.
constexpr const char* kTwoRoots = R"(module "tworoots"
struct %rec { i64, i64 }

define void @alpha() {
entry:
  %r = pm.alloc %rec
  %f = gep %r, 0
  store i64 1, %f !loc("alpha.c", 5)
  pm.flush %f, 8
  pm.fence
  ret
}

define void @beta() {
entry:
  %r = pm.alloc %rec
  %f = gep %r, 1
  store i64 2, %f !loc("beta.c", 5)
  ret
}
)";

// ---------------------------------------------------------------------------
// Byte-identity: cold, warm, across jobs, corpus modules, text format
// ---------------------------------------------------------------------------

TEST(ServeIdentity, ColdAndWarmMatchOneShotAcrossJobs) {
  for (size_t jobs : {1u, 4u, 16u}) {
    SCOPED_TRACE(jobs);
    AnalysisService service(
        cached_opts(fresh_dir("identity_j" + std::to_string(jobs)), jobs));
    for (uint64_t seed = 0; seed < 10; ++seed) {
      SCOPED_TRACE(seed);
      gen::GenOptions gopts;
      gopts.seed = seed;
      gen::GeneratedProgram prog = gen::generate_program(gopts);
      const std::string expect = oneshot_json(prog.name, prog.text, prog.model);

      RequestOptions req;
      req.model = prog.model;
      const ServeResult cold =
          service.analyze_report(prog.name, prog.text, req);
      EXPECT_EQ(cold.body, expect);
      EXPECT_EQ(cold.cache, "cold");
      const ServeResult warm =
          service.analyze_report(prog.name, prog.text, req);
      EXPECT_EQ(warm.body, expect);
      EXPECT_EQ(warm.cache, "unit-hit");
      EXPECT_EQ(cold.exit_code, warm.exit_code);
      EXPECT_EQ(cold.warnings, warm.warnings);
    }
  }
}

TEST(ServeIdentity, CorpusModulesRoundTripThroughPrintedText) {
  // The daemon serves corpus modules from their printed text; the
  // response must match a one-shot run of the same text under the
  // framework's forced model, cold and warm.
  AnalysisService service(cached_opts(fresh_dir("corpus")));
  for (const std::string& name : corpus::module_names()) {
    SCOPED_TRACE(name);
    corpus::CorpusModule cm = corpus::build_module(name);
    const std::string text = ir::to_string(*cm.module);
    const auto model = corpus::framework_model(cm.framework);
    const std::string expect = oneshot_json(name, text, model);

    RequestOptions req;
    req.model = model;
    EXPECT_EQ(service.analyze_report(name, text, req).body, expect);
    const ServeResult warm = service.analyze_report(name, text, req);
    EXPECT_EQ(warm.body, expect);
    EXPECT_EQ(warm.cache, "unit-hit");
  }
}

TEST(ServeIdentity, TextFormatAndParseErrorsMatchOneShot) {
  AnalysisService service(cached_opts(fresh_dir("textfmt")));
  RequestOptions req;
  req.format = core::ReportFormat::kText;
  EXPECT_EQ(service.analyze_report("tworoots", kTwoRoots, req).body,
            oneshot_text("tworoots", kTwoRoots));

  // A parse error is ineligible for caching but must still render the
  // one-shot way (failed unit, exit 65) and never poison the cache.
  RequestOptions jreq;
  const std::string broken = "module \"broken\"\ndefine @@@\n";
  for (int round = 0; round < 2; ++round) {
    const ServeResult r = service.analyze_report("broken", broken, jreq);
    EXPECT_EQ(r.body, oneshot_json("broken", broken));
    EXPECT_TRUE(r.failed);
    EXPECT_EQ(r.exit_code, 65);
  }
}

// ---------------------------------------------------------------------------
// Dirty-cone recomputation
// ---------------------------------------------------------------------------

TEST(ServeDirtyCone, SingleFunctionEditRecomputesOnlyItsCone) {
  AnalysisService service(cached_opts(fresh_dir("dirtycone")));
  RequestOptions req;
  const ServeResult cold = service.analyze_report("tworoots", kTwoRoots, req);
  EXPECT_EQ(cold.cache, "cold");
  EXPECT_EQ(service.stats().last_dirty_roots, 2u);

  // Edit @alpha only: beta's group is untouched, so exactly one root is
  // recomputed and one is seeded from the cache.
  std::string touched = kTwoRoots;
  const size_t at = touched.find("store i64 1,");
  ASSERT_NE(at, std::string::npos);
  touched.replace(at, 12, "store i64 9,");

  const AnalysisService::Stats before = service.stats();
  const ServeResult warm = service.analyze_report("tworoots", touched, req);
  EXPECT_EQ(warm.body, oneshot_json("tworoots", touched));
  EXPECT_EQ(warm.cache, "warm");
  const AnalysisService::Stats after = service.stats();
  EXPECT_EQ(after.root_hits - before.root_hits, 1u);
  EXPECT_EQ(after.root_misses - before.root_misses, 1u);
  EXPECT_EQ(after.last_dirty_roots, 1u);
}

TEST(ServeDirtyCone, SharedCalleeCouplesBothRoots) {
  // Both roots call @shared, so they form one coupling group: editing
  // either root (or the callee) must dirty both. Seeding beta's stale
  // result here would be unsound — DSA flows facts through @shared.
  constexpr const char* kShared = R"(module "shared"
struct %rec { i64, i64 }

define void @shared(%rec* %r) {
entry:
  %f = gep %r, 0
  store i64 1, %f !loc("shared.c", 4)
  ret
}

define void @alpha() {
entry:
  %r = pm.alloc %rec
  call @shared(%r)
  pm.fence
  ret
}

define void @beta() {
entry:
  %r = pm.alloc %rec
  call @shared(%r)
  ret
}
)";
  AnalysisService service(cached_opts(fresh_dir("coupled")));
  RequestOptions req;
  service.analyze_report("shared", kShared, req);

  std::string touched = kShared;
  const size_t at = touched.find("store i64 1,");
  ASSERT_NE(at, std::string::npos);
  touched.replace(at, 12, "store i64 7,");
  const ServeResult r = service.analyze_report("shared", touched, req);
  EXPECT_EQ(r.body, oneshot_json("shared", touched));
  EXPECT_EQ(r.cache, "cold");  // no root survived: whole group dirty
  EXPECT_EQ(service.stats().last_dirty_roots, 2u);
}

TEST(ServeDirtyCone, PlanGroupsIndependentRootsSeparately) {
  // The plan keys the roots the checker itself chose, over its call graph.
  const auto module = ir::parse_module(kTwoRoots);
  core::StaticChecker checker(*module, core::PersistencyModel::kStrict);
  checker.prepare();
  const std::vector<const ir::Function*> roots = checker.trace_roots();
  const serve::ModulePlan plan =
      serve::plan_module(*module, kTwoRoots, checker.dsa().callgraph(), roots,
                         "fp");
  ASSERT_EQ(plan.keys.size(), 2u);
  EXPECT_EQ(plan.groups, 2u);
  EXPECT_EQ(roots[0]->name(), "alpha");
  EXPECT_EQ(roots[1]->name(), "beta");
  EXPECT_NE(plan.keys[0], plan.keys[1]);
}

TEST(ServeDirtyCone, VerifyFailureNeverConsultsTheRootCache) {
  // Parses, but @beta calls @alpha with an argument @alpha does not take,
  // so verification fails: the response is the one-shot error (reason
  // "verify-error"), and no root is looked up, because the driver stops at
  // verify, before it asks the root cache.
  constexpr const char* kBad = R"(module "bad"
struct %rec { i64, i64 }
define void @alpha() {
entry:
  %r = pm.alloc %rec
  %f = gep %r, 0
  store i64 1, %f !loc("bad.c", 3)
  ret
}
define void @beta() {
entry:
  call @alpha(1)
  ret
}
)";
  AnalysisService service(cached_opts(fresh_dir("verifyfail")));
  RequestOptions req;
  for (int round = 0; round < 2; ++round) {
    const ServeResult r = service.analyze_report("bad", kBad, req);
    EXPECT_EQ(r.body, oneshot_json("bad", kBad));
    EXPECT_TRUE(r.failed);
    EXPECT_EQ(r.exit_code, 65);
    EXPECT_EQ(r.cache, "cold");
  }
  EXPECT_EQ(service.stats().root_hits, 0u);
  EXPECT_EQ(service.stats().root_misses, 0u);
}

// ---------------------------------------------------------------------------
// Keys: the word-at-a-time hasher and root keys over source spans
// ---------------------------------------------------------------------------

/// A module shaped like a perfbench serve-edits module: eight independent
/// roots, each one record driven through 5-8 diamonds of store+flush
/// pairs and then an unlocated flush and fence.
std::string serve_edits_module() {
  std::string out = "module \"edits\"\nstruct %rec { i64, i64 }\n\n";
  const size_t diamonds[] = {5, 6, 7, 8, 5, 6, 7, 8};
  size_t line = 1;
  for (size_t r = 0; r < 8; ++r) {
    out += strformat("define void @r%zu() {\nentry:\n", r);
    out += "  %r = pm.alloc %rec\n  %f = gep %r, 0\n  br label %d0\n";
    for (size_t d = 0; d < diamonds[r]; ++d) {
      out += strformat("d%zu:\n  %%v%zu = load %%f\n  %%c%zu = lt %%v%zu, 5\n",
                       d, d, d, d);
      out += strformat("  br %%c%zu, label %%d%zua, label %%d%zub\n", d, d, d);
      for (const char arm : {'a', 'b'}) {
        out += strformat("d%zu%c:\n", d, arm);
        for (int s = 0; s < 2; ++s, ++line)
          out += strformat(
              "  store i64 %zu, %%f !loc(\"edits.c\", %zu)\n  pm.flush %%f, "
              "8\n",
              line % 1000, line);
        out += strformat("  br label %%d%zue\n", d);
      }
      out += strformat("d%zue:\n", d);
      out += d + 1 < diamonds[r] ? strformat("  br label %%d%zu\n", d + 1)
                                 : std::string("  br label %done\n");
    }
    out += "done:\n  pm.flush %f, 8\n  pm.fence\n  ret\n}\n\n";
  }
  return out;
}

/// The plan the driver's cache would get for `text`: the checker's own
/// roots over its own call graph.
serve::ModulePlan plan_for(const std::string& text) {
  const auto module = ir::parse_module(text);
  core::StaticChecker checker(*module, core::PersistencyModel::kStrict);
  checker.prepare();
  return serve::plan_module(*module, text, checker.dsa().callgraph(),
                            checker.trace_roots(), "fp");
}

/// `text` with `insert` placed right after the first `anchor`.
std::string insert_after(std::string text, const std::string& anchor,
                         const std::string& insert) {
  const size_t at = text.find(anchor);
  EXPECT_NE(at, std::string::npos) << anchor;
  if (at != std::string::npos) text.insert(at + anchor.size(), insert);
  return text;
}

/// `text` with its `define void @<a>` and `define void @<b>` functions
/// swapped; both run to the first "}\n" after their define line.
std::string swap_functions(const std::string& text, const std::string& a,
                           const std::string& b) {
  auto span = [&](const std::string& name) {
    const size_t begin = text.find("define void @" + name + "(");
    const size_t end = text.find("}\n", begin) + 2;
    return std::make_pair(begin, end);
  };
  auto [a0, a1] = span(a);
  auto [b0, b1] = span(b);
  EXPECT_LT(a1, b0);
  return text.substr(0, a0) + text.substr(b0, b1 - b0) +
         text.substr(a1, b0 - a1) + text.substr(a0, a1 - a0) +
         text.substr(b1);
}

TEST(ServeKeys, HasherDigestIsTheSameForEverySplit) {
  std::string bytes;
  for (size_t i = 0; i < 64; ++i) bytes += static_cast<char>(i * 37 + 11);
  for (size_t n = 0; n <= bytes.size(); ++n) {
    SCOPED_TRACE(n);
    const std::string_view input = std::string_view(bytes).substr(0, n);
    const std::string whole = serve::hash_bytes(input);
    serve::Hasher one_by_one;
    for (const char c : input) one_by_one.update({&c, 1});
    EXPECT_EQ(one_by_one.hex(), whole);
    for (size_t i = 0; i <= n; ++i)
      for (size_t j = i; j <= n; ++j)
        ASSERT_EQ(serve::Hasher()
                      .update(input.substr(0, i))
                      .update(input.substr(i, j - i))
                      .update(input.substr(j))
                      .hex(),
                  whole)
            << "split at " << i << " and " << j;
  }

  const std::string module = serve_edits_module();
  const std::string whole = serve::hash_bytes(module);
  const std::string_view view = module;
  for (size_t i = 0; i <= module.size(); ++i)
    ASSERT_EQ(
        serve::Hasher().update(view.substr(0, i)).update(view.substr(i)).hex(),
        whole)
        << "split at " << i;
}

TEST(ServeKeys, DigestsAreThirtyTwoHexDigitsAndSeparateLengthsAndFields) {
  const std::string empty = serve::hash_bytes("");
  const std::string nul = serve::hash_bytes(std::string(1, '\0'));
  const std::string nul2 = serve::hash_bytes(std::string(2, '\0'));
  EXPECT_NE(empty, nul);
  EXPECT_NE(empty, nul2);
  EXPECT_NE(nul, nul2);
  for (const std::string& hex : {empty, nul, nul2}) {
    EXPECT_EQ(hex.size(), 32u);
    EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos)
        << hex;
  }

  auto fields = [](std::string_view a, std::string_view b) {
    return serve::Hasher().field(a).field(b).hex();
  };
  EXPECT_NE(fields("ab", "c"), fields("a", "bc"));
  EXPECT_NE(fields("", "a"), fields("a", ""));
  // A separator byte inside a field cannot fake a boundary.
  EXPECT_NE(fields(std::string("a\x1f", 2), ""),
            fields("a", std::string("\x1f", 1)));
  EXPECT_NE(serve::Hasher().field("").hex(), empty);
}

TEST(ServeKeys, UpdateU64IsItsLittleEndianBytes) {
  for (const uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{0x1f},
                           uint64_t{0x0102030405060708},
                           ~uint64_t{0}}) {
    SCOPED_TRACE(v);
    std::string le;
    for (int i = 0; i < 8; ++i) le += static_cast<char>(v >> (8 * i));
    EXPECT_EQ(serve::Hasher().update_u64(v).hex(),
              serve::Hasher().update(le).hex());
    // Also when the word straddles a block boundary.
    EXPECT_EQ(serve::Hasher().update("0123456789abc").update_u64(v).hex(),
              serve::Hasher().update("0123456789abc").update(le).hex());
  }
}

TEST(ServeKeys, CommentInsideAFunctionDirtiesExactlyItsGroup) {
  const std::string text = serve_edits_module();
  const std::string touched = insert_after(
      text, "define void @r3() {\nentry:\n", "  ; a comment inside @r3\n");
  const serve::ModulePlan before = plan_for(text);
  const serve::ModulePlan after = plan_for(touched);
  ASSERT_EQ(before.keys.size(), 8u);
  ASSERT_EQ(after.keys.size(), 8u);
  EXPECT_EQ(before.groups, 8u);
  for (size_t i = 0; i < 8; ++i) {
    SCOPED_TRACE(i);
    EXPECT_FALSE(after.keys[i].empty());
    if (i == 3)
      EXPECT_NE(before.keys[i], after.keys[i]);
    else
      EXPECT_EQ(before.keys[i], after.keys[i]);
  }

  AnalysisService service(cached_opts(fresh_dir("keys_comment")));
  RequestOptions req;
  EXPECT_EQ(service.analyze_report("edits", text, req).cache, "cold");
  const AnalysisService::Stats s0 = service.stats();
  const ServeResult warm = service.analyze_report("edits", touched, req);
  EXPECT_EQ(warm.body, oneshot_json("edits", touched));
  EXPECT_EQ(warm.cache, "warm");
  const AnalysisService::Stats s1 = service.stats();
  EXPECT_EQ(s1.root_hits - s0.root_hits, 7u);
  EXPECT_EQ(s1.root_misses - s0.root_misses, 1u);
}

TEST(ServeKeys, TextOutsideFunctionsAndFunctionOrderLeaveEveryRootAHit) {
  const std::string text = serve_edits_module();
  const std::string commented =
      insert_after(text, "ret\n}\n", "; between @r0 and @r1\n\n");
  const std::string swapped = swap_functions(text, "r1", "r6");
  ASSERT_NE(swapped, text);
  const serve::ModulePlan plan = plan_for(text);
  AnalysisService service(cached_opts(fresh_dir("keys_outside")));
  RequestOptions req;
  service.analyze_report("edits", text, req);
  for (const std::string& variant : {commented, swapped}) {
    const serve::ModulePlan vplan = plan_for(variant);
    // The checker's roots come in module order; key by root name.
    auto sorted = [](std::vector<std::string> keys) {
      std::sort(keys.begin(), keys.end());
      return keys;
    };
    EXPECT_EQ(sorted(vplan.keys), sorted(plan.keys));
    const AnalysisService::Stats s0 = service.stats();
    const ServeResult r = service.analyze_report("edits", variant, req);
    EXPECT_EQ(r.body, oneshot_json("edits", variant));
    EXPECT_EQ(r.cache, "warm");
    const AnalysisService::Stats s1 = service.stats();
    EXPECT_EQ(s1.unit_misses - s0.unit_misses, 1u);
    EXPECT_EQ(s1.root_hits - s0.root_hits, 8u);
    EXPECT_EQ(s1.root_misses - s0.root_misses, 0u);
  }
}

TEST(ServeKeys, SignatureParsedBeforeItsStructIsKeyedApart) {
  // Pass 1 reads structs and signatures in line order, so a signature
  // above its struct's line degrades %rec* to ptr. Same function text,
  // same struct layouts, different parse: the keys must differ.
  const std::string body =
      "define void @w(%rec* %p) {\nentry:\n  %f = gep %p, 1\n"
      "  store i64 1, %f !loc(\"w.c\", 3)\n  pm.flush %f, 8\n  pm.fence\n"
      "  ret\n}\n";
  const std::string above = "module \"w\"\nstruct %rec { i64, i64 }\n" + body;
  const std::string below = "module \"w\"\n" + body + "struct %rec { i64, i64 }\n";
  const auto a = ir::parse_module(above);
  const auto b = ir::parse_module(below);
  ASSERT_NE(a->find_function("w")->arg(0)->type()->str(),
            b->find_function("w")->arg(0)->type()->str());
  const serve::ModulePlan pa = plan_for(above);
  const serve::ModulePlan pb = plan_for(below);
  ASSERT_EQ(pa.keys.size(), 1u);
  ASSERT_EQ(pb.keys.size(), 1u);
  EXPECT_NE(pa.keys[0], pb.keys[0]);
}

TEST(ServeKeys, FunctionsWithoutSpansGetNoKey) {
  // IRBuilder functions have no span, so their roots are never looked up
  // or stored (an empty key): the root cache counts them as misses.
  ir::Module built("built");
  ir::IRBuilder b(built);
  const ir::StructType* rec =
      built.types().create_struct("rec", {built.types().i64()});
  for (const char* name : {"alpha", "beta"}) {
    b.begin_function(name, built.types().void_type(), {});
    b.store(1, b.gep(b.pm_alloc(rec, "r"), 0, "f"));
    b.ret();
  }
  {
    core::StaticChecker checker(built, core::PersistencyModel::kStrict);
    checker.prepare();
    const serve::ModulePlan plan =
        serve::plan_module(built, ir::to_string(built),
                           checker.dsa().callgraph(), checker.trace_roots(),
                           "fp");
    ASSERT_EQ(plan.keys.size(), 2u);
    EXPECT_EQ(plan.groups, 2u);
    for (const std::string& key : plan.keys) EXPECT_TRUE(key.empty());
  }

  // A builder function added to a parsed module empties only its own
  // group's key; a text too short for the spans empties every key.
  const auto parsed = ir::parse_module(kTwoRoots);
  ir::IRBuilder pb(*parsed);
  pb.begin_function("gamma", parsed->types().void_type(), {});
  pb.store(1, pb.gep(pb.pm_alloc(parsed->types().find_struct("rec"), "r"), 0,
                     "f"));
  pb.ret();
  core::StaticChecker checker(*parsed, core::PersistencyModel::kStrict);
  checker.prepare();
  const std::vector<const ir::Function*> roots = checker.trace_roots();
  const serve::ModulePlan plan = serve::plan_module(
      *parsed, kTwoRoots, checker.dsa().callgraph(), roots, "fp");
  ASSERT_EQ(plan.keys.size(), 3u);
  for (size_t i = 0; i < roots.size(); ++i) {
    SCOPED_TRACE(roots[i]->name());
    EXPECT_EQ(plan.keys[i].empty(), roots[i]->name() == "gamma");
  }
  const serve::ModulePlan cut = serve::plan_module(
      *parsed, std::string_view(kTwoRoots).substr(0, 40),
      checker.dsa().callgraph(), roots, "fp");
  for (const std::string& key : cut.keys) EXPECT_TRUE(key.empty());
}

// ---------------------------------------------------------------------------
// touch_function: the tiny-diff resubmission generator
// ---------------------------------------------------------------------------

TEST(ServeTouchFunction, DeterministicSingleFunctionDiff) {
  gen::GenOptions gopts;
  gopts.seed = 7;
  gen::GeneratedProgram prog = gen::generate_program(gopts);
  const std::string a = gen::touch_function(prog.text, 1);
  EXPECT_EQ(a, gen::touch_function(prog.text, 1));  // deterministic
  ASSERT_NE(a, prog.text);

  // The diff is exactly one line, inside exactly one function.
  std::istringstream sa(a), sb(prog.text);
  std::string la, lb;
  size_t diffs = 0;
  while (std::getline(sa, la) && std::getline(sb, lb))
    if (la != lb) ++diffs;
  EXPECT_EQ(diffs, 1u);

  // Still a valid program.
  EXPECT_NO_THROW(ir::parse_module(a));

  // Different salts eventually pick different functions/sites.
  bool any_other = false;
  for (uint64_t salt = 0; salt < 8 && !any_other; ++salt)
    any_other = gen::touch_function(prog.text, salt) != a;
  EXPECT_TRUE(any_other);
}

TEST(ServeTouchFunction, IdentityWhenNoConstantStores) {
  const std::string none = "module \"none\"\ndeclare void @ext()\n";
  EXPECT_EQ(gen::touch_function(none, 3), none);
}

// ---------------------------------------------------------------------------
// Cache durability: version mismatches, corruption, wire round trips
// ---------------------------------------------------------------------------

/// Rewrites the version tag of every record in `dir`'s log to `version`,
/// walking the records by their size fields. The tag keeps its length, so
/// every record keeps its offset.
void retag_records(const std::string& dir, uint32_t version) {
  std::ifstream in(log_path(dir), std::ios::binary);
  std::string log((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  const std::string from =
      "deepmc-cache-v" + std::to_string(DiskCache::kFormatVersion) + " ";
  const std::string to = "deepmc-cache-v" + std::to_string(version) + " ";
  ASSERT_EQ(from.size(), to.size());
  size_t records = 0;
  for (size_t at = 0; at < log.size(); ++records) {
    ASSERT_EQ(log.compare(at, from.size(), from), 0) << at;
    log.replace(at, to.size(), to);
    const size_t nl = log.find('\n', at);
    ASSERT_NE(nl, std::string::npos);
    const size_t size_at = log.rfind(' ', nl) + 1;
    at = nl + 1 + std::stoull(log.substr(size_at, nl - size_at));
  }
  ASSERT_GT(records, 0u);
  std::ofstream(log_path(dir), std::ios::binary | std::ios::trunc) << log;
}

TEST(ServeCache, VersionMismatchFallsBackToFullRecompute) {
  const std::string dir = fresh_dir("version");
  const std::string expect = oneshot_json("tworoots", kTwoRoots);
  RequestOptions req;
  {
    AnalysisService v1(cached_opts(dir));
    EXPECT_EQ(v1.analyze_report("tworoots", kTwoRoots, req).body, expect);
  }
  // Same directory, records of another entry format: every old entry
  // reads as a miss (corrupt counter), result stays correct, and the new
  // entries warm the cache at the current version.
  retag_records(dir, DiskCache::kFormatVersion + 1);
  AnalysisService v2(cached_opts(dir));
  const ServeResult cold = v2.analyze_report("tworoots", kTwoRoots, req);
  EXPECT_EQ(cold.body, expect);
  EXPECT_EQ(cold.cache, "cold");
  EXPECT_GT(v2.cache_stats().corrupt, 0u);
  const ServeResult warm = v2.analyze_report("tworoots", kTwoRoots, req);
  EXPECT_EQ(warm.body, expect);
  EXPECT_EQ(warm.cache, "unit-hit");
}

TEST(ServeCache, CorruptedEntriesRecoverToFullRecompute) {
  const std::string dir = fresh_dir("corrupt");
  const std::string expect = oneshot_json("tworoots", kTwoRoots);
  RequestOptions req;
  AnalysisService service(cached_opts(dir));
  service.analyze_report("tworoots", kTwoRoots, req);

  // Trash every entry: truncated headers, flipped payload bytes.
  size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    std::ofstream f(e.path(), std::ios::binary | std::ios::trunc);
    f << (entries % 2 == 0 ? "garbage\n" : "deepmc-cache-v1 00 bad\n");
    ++entries;
  }
  ASSERT_GT(entries, 0u);

  const ServeResult r = service.analyze_report("tworoots", kTwoRoots, req);
  EXPECT_EQ(r.body, expect);
  EXPECT_EQ(r.cache, "cold");
  EXPECT_GT(service.cache_stats().corrupt, 0u);
  // Corrupt entries were removed and rewritten; the next request hits.
  EXPECT_EQ(service.analyze_report("tworoots", kTwoRoots, req).cache,
            "unit-hit");
}

TEST(ServeCache, DiskCacheRejectsTamperedPayload) {
  const std::string dir = fresh_dir("tamper");
  DiskCache cache(dir);
  cache.put("aaaa", "payload-bytes");
  ASSERT_TRUE(cache.get("aaaa").has_value());

  // Flip one payload byte behind the hash's back.
  std::fstream f(dir + "/entries.log",
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-1, std::ios::end);
  f.put('X');
  f.close();
  EXPECT_FALSE(cache.get("aaaa").has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
  // Dropped, not retried forever: the next get misses without a read.
  EXPECT_FALSE(cache.get("aaaa").has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
}

// ---------------------------------------------------------------------------
// The cache's contract, whatever its on-disk layout: these tests reach the
// directory only to flip bytes in every file it holds, never by file name.
// ---------------------------------------------------------------------------

constexpr size_t kContractKeys = 64;

std::string contract_key(size_t i) {
  return serve::hash_bytes("contract-key-" + std::to_string(i));
}

/// 0 to 64 KiB; every payload of 256 bytes or more holds every byte value,
/// '\n' and '\0' included.
std::string contract_payload(size_t i) {
  std::string out(i * 1040, '\0');
  for (size_t j = 0; j < out.size(); ++j)
    out[j] = static_cast<char>((i * 31 + j * 7) & 0xff);
  return out;
}

/// Inverts `count` bytes, spread evenly, in every regular file under `dir`.
void flip_bytes_in_every_file(const std::string& dir, size_t count) {
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    const uint64_t size = e.file_size();
    if (size == 0) continue;
    std::set<uint64_t> positions;
    for (size_t k = 0; k < count; ++k)
      positions.insert(size * (2 * k + 1) / (2 * count));
    std::fstream f(e.path(), std::ios::in | std::ios::out | std::ios::binary);
    for (const uint64_t pos : positions) {
      f.seekg(static_cast<std::streamoff>(pos));
      const int c = f.get();
      f.seekp(static_cast<std::streamoff>(pos));
      f.put(static_cast<char>(c ^ 0xff));
    }
  }
}

TEST(ServeCacheContract, RoundTripsAcrossRestart) {
  const std::string dir = fresh_dir("contract_roundtrip");
  {
    DiskCache cache(dir);
    for (size_t i = 0; i < kContractKeys; ++i)
      cache.put(contract_key(i), contract_payload(i));
    for (size_t i = 0; i < kContractKeys; ++i) {
      const std::optional<std::string> got = cache.get(contract_key(i));
      ASSERT_TRUE(got.has_value()) << i;
      EXPECT_EQ(*got, contract_payload(i)) << i;
    }
    EXPECT_EQ(cache.stats().write_errors, 0u);
  }
  DiskCache reopened(dir);
  for (size_t i = 0; i < kContractKeys; ++i) {
    const std::optional<std::string> got = reopened.get(contract_key(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(*got, contract_payload(i)) << i;
  }
  EXPECT_EQ(reopened.stats().corrupt, 0u);
}

TEST(ServeCacheContract, RewriteWinsAcrossRestart) {
  const std::string dir = fresh_dir("contract_rewrite");
  const std::string grows = contract_key(0);
  const std::string shrinks = contract_key(1);
  {
    DiskCache cache(dir);
    cache.put(grows, "short");
    cache.put(shrinks, "the longer first payload");
    cache.put(grows, "the longer second payload");
    cache.put(shrinks, "short");
    EXPECT_EQ(cache.get(grows).value_or("<miss>"), "the longer second payload");
    EXPECT_EQ(cache.get(shrinks).value_or("<miss>"), "short");
  }
  DiskCache reopened(dir);
  EXPECT_EQ(reopened.get(grows).value_or("<miss>"),
            "the longer second payload");
  EXPECT_EQ(reopened.get(shrinks).value_or("<miss>"), "short");
}

TEST(ServeCacheContract, TamperingNeverReturnsWrongBytes) {
  const std::string dir = fresh_dir("contract_tamper");
  const auto exact_or_miss = [](DiskCache& cache) {
    for (size_t i = 0; i < kContractKeys; ++i) {
      const std::optional<std::string> got = cache.get(contract_key(i));
      if (got) {
        EXPECT_EQ(*got, contract_payload(i)) << i;
      }
    }
  };
  DiskCache before(dir);
  for (size_t i = 0; i < kContractKeys; ++i)
    before.put(contract_key(i), contract_payload(i));
  flip_bytes_in_every_file(dir, 16);
  exact_or_miss(before);
  EXPECT_GT(before.stats().corrupt, 0u);

  // Store everything again and tamper again, then read it all through a
  // cache opened afterwards, as a restarted server would.
  for (size_t i = 0; i < kContractKeys; ++i)
    before.put(contract_key(i), contract_payload(i));
  flip_bytes_in_every_file(dir, 16);
  DiskCache after(dir);
  exact_or_miss(after);
  EXPECT_GT(after.stats().corrupt, 0u);
}

TEST(ServeCacheContract, ConcurrentPutGetNeverTearsAnEntry) {
  const std::string dir = fresh_dir("contract_concurrent");
  constexpr size_t kThreads = 4;
  constexpr size_t kKeys = 32;
  constexpr size_t kRounds = 4;
  std::atomic<size_t> wrong{0};
  {
    DiskCache cache(dir);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        for (size_t round = 0; round < kRounds; ++round)
          for (size_t k = 0; k < kKeys; ++k) {
            // Each thread visits the keys in its own order, and puts on
            // alternate rounds, so puts and gets of one key overlap.
            const size_t i = (k * 5 + t * 11 + round) % kKeys;
            if ((round + t) % 2 == 0)
              cache.put(contract_key(i), contract_payload(i));
            const size_t j = (i + kKeys / 2) % kKeys;
            const std::optional<std::string> got = cache.get(contract_key(j));
            if (got && *got != contract_payload(j)) ++wrong;
          }
      });
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(cache.stats().write_errors, 0u);
  }
  EXPECT_EQ(wrong.load(), 0u);
  DiskCache reopened(dir);
  for (size_t i = 0; i < kKeys; ++i) {
    const std::optional<std::string> got = reopened.get(contract_key(i));
    if (got) {
      EXPECT_EQ(*got, contract_payload(i)) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Bounded cache: LRU eviction (DiskCache::Limits)
// ---------------------------------------------------------------------------

TEST(ServeCacheLru, EvictsByEntryCountInRecencyOrder) {
  const std::string dir = fresh_dir("lru_count");
  DiskCache cache(dir, DiskCache::Limits{.max_entries = 2});
  cache.put("aa", "one");
  cache.put("bb", "two");
  cache.put("cc", "three");  // evicts aa, the least recent
  EXPECT_FALSE(cache.get("aa").has_value());
  EXPECT_TRUE(cache.get("bb").has_value());  // refreshes bb's recency
  cache.put("dd", "four");                   // now cc is the LRU victim
  EXPECT_FALSE(cache.get("cc").has_value());
  EXPECT_TRUE(cache.get("bb").has_value());
  EXPECT_TRUE(cache.get("dd").has_value());
  EXPECT_FALSE(cache.get("aa").has_value());

  const DiskCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_GT(s.evicted_bytes, 0u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(ServeCacheLru, EvictsByTotalBytes) {
  const std::string dir = fresh_dir("lru_bytes");
  // Each entry is a 56-byte header (a 2-byte key) + 100 payload bytes;
  // only two of them fit under 400 total bytes.
  DiskCache cache(dir, DiskCache::Limits{.max_bytes = 400});
  const std::string payload(100, 'x');
  for (const std::string key : {"k1", "k2", "k3", "k4"})
    cache.put(key, payload);
  const DiskCache::Stats s = cache.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes, 400u);
  EXPECT_GT(s.evicted_bytes, 0u);
  EXPECT_FALSE(cache.get("k1").has_value()) << "oldest entry must go first";
  EXPECT_TRUE(cache.get("k4").has_value());
}

TEST(ServeCacheLru, RewritingAKeyDoesNotDuplicateIt) {
  const std::string dir = fresh_dir("lru_rewrite");
  DiskCache cache(dir, DiskCache::Limits{.max_entries = 2});
  cache.put("aa", "one");
  cache.put("aa", "one-rewritten-longer");
  cache.put("bb", "two");
  const DiskCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(*cache.get("aa"), "one-rewritten-longer");
}

TEST(ServeCacheLru, BoundSurvivesRestart) {
  const std::string dir = fresh_dir("lru_restart");
  {
    DiskCache unbounded(dir);
    unbounded.put("old1", "payload");
    unbounded.put("old2", "payload");
    unbounded.put("new1", "payload");
  }

  // A bounded cache over the same directory reads the log, oldest record
  // least recent, and evicts down to the limit immediately: restarts do
  // not forget the bound.
  DiskCache bounded(dir, DiskCache::Limits{.max_entries = 1});
  EXPECT_TRUE(bounded.get("new1").has_value());
  const DiskCache::Stats s = bounded.stats();
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.entries, 1u);

  // The evictions are on disk too: an unbounded open finds one entry.
  DiskCache reopened(dir);
  EXPECT_EQ(reopened.stats().entries, 1u);
  EXPECT_TRUE(reopened.get("new1").has_value());
  EXPECT_FALSE(reopened.get("old1").has_value());
  EXPECT_FALSE(reopened.get("old2").has_value());
}

TEST(ServeCacheLru, ZeroLimitsStayUnbounded) {
  const std::string dir = fresh_dir("lru_unbounded");
  DiskCache cache(dir);  // the historical unbounded behavior
  for (int i = 0; i < 16; ++i)
    cache.put("key" + std::to_string(i), "payload");
  const DiskCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 16u);
}

TEST(ServeCacheLru, ServiceResponsesSurviveEviction) {
  // A cache squeezed down to one entry keeps evicting mid-request; the
  // responses must stay byte-identical to the one-shot oracle anyway.
  const std::string dir = fresh_dir("lru_service");
  const std::string expect = oneshot_json("tworoots", kTwoRoots);
  ServeOptions sopts = cached_opts(dir);
  sopts.cache_limits.max_entries = 1;
  AnalysisService service(std::move(sopts));
  RequestOptions req;
  EXPECT_EQ(service.analyze_report("tworoots", kTwoRoots, req).body, expect);
  EXPECT_EQ(service.analyze_report("tworoots", kTwoRoots, req).body, expect);
  const DiskCache::Stats s = service.cache_stats();
  EXPECT_LE(s.entries, 1u);
  EXPECT_GT(s.evictions, 0u);
  // The stats surface exposes the new counters.
  const std::string json = service.stats_json();
  for (const std::string key : {"\"evictions\"", "\"evicted_bytes\"",
                                "\"entries\"", "\"bytes\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
}

// ---------------------------------------------------------------------------
// The append-only log: torn tails, compaction, other versions, file count
// ---------------------------------------------------------------------------

TEST(ServeCacheLog, TornTailIsCutAtReopen) {
  // Cut inside the last record's payload, then inside its header.
  for (const uint64_t cut : {10u, 110u}) {
    SCOPED_TRACE(cut);
    const std::string dir = fresh_dir("log_torn" + std::to_string(cut));
    {
      DiskCache cache(dir);
      cache.put("first", "one");
      cache.put("second", "two");
      cache.put("torn", std::string(100, 't'));
    }
    // What a kill -9 mid-append leaves: the last record loses its end.
    fs::resize_file(log_path(dir), fs::file_size(log_path(dir)) - cut);
    {
      DiskCache reopened(dir);
      EXPECT_EQ(reopened.get("first").value_or("<miss>"), "one");
      EXPECT_EQ(reopened.get("second").value_or("<miss>"), "two");
      EXPECT_FALSE(reopened.get("torn").has_value());
      EXPECT_EQ(reopened.stats().entries, 2u);
      EXPECT_EQ(reopened.stats().corrupt, 1u);
      reopened.put("after", "three");
    }
    DiskCache again(dir);
    EXPECT_EQ(again.stats().corrupt, 0u);
    EXPECT_EQ(again.stats().entries, 3u);
    EXPECT_EQ(again.get("after").value_or("<miss>"), "three");
    EXPECT_EQ(again.get("first").value_or("<miss>"), "one");
  }
}

TEST(ServeCacheLog, CompactionBoundsTheLogByTheLiveEntries) {
  // 64 puts into a cache bounded at 8 entries: over 64 distinct keys, each
  // put past the eighth evicts an entry; over 8 keys in turn, each put
  // past the eighth supersedes one.
  for (const size_t distinct : {64u, 8u}) {
    SCOPED_TRACE(distinct);
    const std::string dir =
        fresh_dir("log_compact" + std::to_string(distinct));
    const auto key = [&](size_t i) {
      return "key" + std::to_string(i % distinct);
    };
    const auto payload = [](size_t i) {
      return std::string(100 + (i % 7) * 30, static_cast<char>('a' + i % 26));
    };
    constexpr uint64_t kRecordBound = 64 + 100 + 6 * 30;  // header < 64
    const DiskCache::Limits limits{.max_entries = 8};
    // The eight most recently put keys stay, each with its last payload.
    std::map<std::string, std::string> live;
    for (size_t i = 64; i-- > 0 && live.size() < 8;)
      live.emplace(key(i), payload(i));
    const auto holds_the_live_entries = [&](DiskCache& cache) {
      for (size_t i = 0; i < 64; ++i) {
        const std::optional<std::string> got = cache.get(key(i));
        if (live.count(key(i)) != 0) {
          EXPECT_EQ(got.value_or("<miss>"), live[key(i)]) << i;
        } else {
          EXPECT_FALSE(got.has_value()) << i;
        }
      }
    };
    uint64_t written = 0;
    {
      DiskCache cache(dir, limits);
      for (size_t i = 0; i < 64; ++i) {
        cache.put(key(i), payload(i));
        written += payload(i).size();
        const DiskCache::Stats s = cache.stats();
        EXPECT_LE(fs::file_size(log_path(dir)), 2 * s.bytes + kRecordBound)
            << i;
      }
      EXPECT_LT(fs::file_size(log_path(dir)), written);
      const DiskCache::Stats s = cache.stats();
      EXPECT_EQ(s.entries, 8u);
      EXPECT_EQ(s.evictions, distinct - 8);
      EXPECT_EQ(s.write_errors, 0u);
      holds_the_live_entries(cache);
    }
    // Evictions since the last compaction are still records in the log;
    // the reopen evicts them again, oldest first, and holds the same keys.
    DiskCache reopened(dir, limits);
    EXPECT_EQ(reopened.stats().entries, 8u);
    EXPECT_EQ(reopened.stats().corrupt, 0u);
    holds_the_live_entries(reopened);
  }
}

/// Appends one record in the log's documented format, whatever version.
void append_record(const std::string& dir, uint32_t version,
                   const std::string& key, const std::string& payload) {
  std::ofstream log(log_path(dir), std::ios::binary | std::ios::app);
  log << "deepmc-cache-v" << version << ' ' << key << ' '
      << serve::hash_bytes(payload) << ' ' << payload.size() << '\n'
      << payload;
}

TEST(ServeCacheLog, OtherVersionRecordsAreCorruptUntilCompactedAway) {
  const std::string dir = fresh_dir("log_version");
  {
    DiskCache current(dir);
    current.put("keep", std::string(1000, 'k'));
  }
  append_record(dir, DiskCache::kFormatVersion + 1, "aa", "other-1");
  append_record(dir, DiskCache::kFormatVersion - 1, "bb", "other-2");
  DiskCache cache(dir);
  EXPECT_EQ(cache.stats().corrupt, 2u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_FALSE(cache.get("aa").has_value());
  EXPECT_FALSE(cache.get("bb").has_value());
  EXPECT_EQ(cache.get("keep").value_or("<miss>"), std::string(1000, 'k'));

  // Rewriting the large entry makes the dead bytes outweigh the live ones:
  // the compaction leaves only the new record in the log.
  cache.put("keep", "short");
  EXPECT_EQ(fs::file_size(log_path(dir)), cache.stats().bytes);
  DiskCache reopened(dir);
  EXPECT_EQ(reopened.stats().corrupt, 0u);
  EXPECT_EQ(reopened.stats().entries, 1u);
  EXPECT_EQ(reopened.get("keep").value_or("<miss>"), "short");
}

TEST(ServeCacheLog, RecordOfAnotherKeyAtTheOffsetIsAMiss) {
  // Another writer replaces the log in place with a record of the same
  // size for another key: the version, size and payload hash all check
  // out, and only the key in the header tells the records apart.
  const std::string dir = fresh_dir("log_otherkey");
  DiskCache cache(dir);
  cache.put("aa", "payload-a");
  fs::resize_file(log_path(dir), 0);
  append_record(dir, DiskCache::kFormatVersion, "bb", "payload-b");
  EXPECT_FALSE(cache.get("aa").has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST(ServeCacheLog, OutsideAppendsDoNotShiftLaterRecords) {
  // A record appended behind the cache's back: the cache's next record
  // lands after it and must be indexed where it landed.
  const std::string dir = fresh_dir("log_outside");
  DiskCache cache(dir);
  cache.put("aa", "payload-a");
  append_record(dir, DiskCache::kFormatVersion, "zz", "from another writer");
  cache.put("bb", "payload-b");
  EXPECT_EQ(cache.get("aa").value_or("<miss>"), "payload-a");
  EXPECT_EQ(cache.get("bb").value_or("<miss>"), "payload-b");
  EXPECT_EQ(cache.stats().corrupt, 0u);
}

TEST(ServeCacheLog, PutsCreateNoFiles) {
  const std::string dir = fresh_dir("log_files");
  DiskCache cache(dir);
  for (size_t i = 0; i < 100; ++i) {
    cache.put(contract_key(i), "payload " + std::to_string(i));
    ASSERT_TRUE(cache.get(contract_key(i)).has_value()) << i;
  }
  EXPECT_EQ(
      std::distance(fs::directory_iterator(dir), fs::directory_iterator()), 1);
}

TEST(ServeCacheLog, BadKeysAreWriteErrors) {
  const std::string dir = fresh_dir("log_badkey");
  DiskCache cache(dir);
  const std::vector<std::string> bad = {"", "has space", "tab\there",
                                        "new\nline", std::string(1025, 'k')};
  for (const std::string& key : bad) {
    cache.put(key, "payload");
    EXPECT_FALSE(cache.get(key).has_value());
  }
  EXPECT_EQ(cache.stats().write_errors, bad.size());
  EXPECT_EQ(cache.stats().entries, 0u);
  // Nothing reached the log: a good key still reads back after a reopen.
  cache.put("good", "payload");
  DiskCache reopened(dir);
  EXPECT_EQ(reopened.stats().corrupt, 0u);
  EXPECT_EQ(reopened.get("good").value_or("<miss>"), "payload");
}

TEST(ServeWire, CheckResultRoundTrip) {
  core::CheckResult r;
  core::Warning w;
  w.rule = "strict.unflushed-write";
  w.category = core::BugCategory::kUnflushedWrite;
  w.model = core::PersistencyModel::kStrict;
  w.loc = {"a.c", 42};
  w.function = "alpha";
  w.message = "store to \"field\" never flushed";
  r.add(w);
  w.rule = "epoch.missing-barrier";
  w.category = core::BugCategory::kMissingBarrier;
  w.model = core::PersistencyModel::kEpoch;
  w.loc = {"b.c", 7};
  r.add(w);
  r.traces_checked = 11;
  r.functions_checked = 3;

  core::CheckResult back;
  ASSERT_TRUE(serve::decode_check_result(serve::encode_check_result(r), &back));
  ASSERT_EQ(back.count(), r.count());
  for (size_t i = 0; i < r.count(); ++i) {
    EXPECT_EQ(back.warnings()[i].rule, r.warnings()[i].rule);
    EXPECT_EQ(back.warnings()[i].category, r.warnings()[i].category);
    EXPECT_EQ(back.warnings()[i].model, r.warnings()[i].model);
    EXPECT_EQ(back.warnings()[i].loc, r.warnings()[i].loc);
    EXPECT_EQ(back.warnings()[i].function, r.warnings()[i].function);
    EXPECT_EQ(back.warnings()[i].message, r.warnings()[i].message);
  }
  EXPECT_EQ(back.traces_checked, r.traces_checked);
  EXPECT_EQ(back.functions_checked, r.functions_checked);
}

TEST(ServeWire, DecodeRejectsGarbageAndTruncation) {
  core::CheckResult r;
  EXPECT_FALSE(serve::decode_check_result("not a payload", &r));
  core::UnitReport u;
  EXPECT_FALSE(serve::decode_unit_report("", &u));
  EXPECT_FALSE(serve::decode_unit_report("\x01\x02\x03", &u));

  core::CheckResult full;
  core::Warning w;
  w.rule = "r";
  w.category = core::BugCategory::kUnflushedWrite;
  w.model = core::PersistencyModel::kStrict;
  w.loc = {"f.c", 1};
  full.add(w);
  const std::string enc = serve::encode_check_result(full);
  for (size_t cut : {size_t{1}, enc.size() / 2, enc.size() - 1})
    EXPECT_FALSE(serve::decode_check_result(enc.substr(0, cut), &r));
  // Trailing junk is also a decode failure, not silently ignored.
  EXPECT_FALSE(serve::decode_check_result(enc + "x", &r));
}

// ---------------------------------------------------------------------------
// Protocol framing + fault injection through serve_stream
// ---------------------------------------------------------------------------

/// Run a framed session through serve_stream over temp files (regular
/// files never block, unlike pipes). `raw_prefix` is prepended verbatim
/// for malformed-frame tests.
std::vector<ResponseFrame> run_stream(AnalysisService& service,
                                      const std::vector<RequestFrame>& reqs,
                                      const std::string& tag,
                                      int* stream_rc = nullptr,
                                      const std::string& raw_prefix = "") {
  const std::string in_path = ::testing::TempDir() + "serve_in_" + tag;
  const std::string out_path = ::testing::TempDir() + "serve_out_" + tag;
  int wfd = ::open(in_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  EXPECT_GE(wfd, 0);
  if (!raw_prefix.empty())
    serve::write_exact(wfd, raw_prefix.data(), raw_prefix.size());
  for (const RequestFrame& req : reqs) serve::write_request(wfd, req);
  ::close(wfd);

  const int in_fd = ::open(in_path.c_str(), O_RDONLY);
  const int out_fd =
      ::open(out_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  const int rc = serve::serve_stream(service, in_fd, out_fd);
  if (stream_rc != nullptr) *stream_rc = rc;
  ::close(in_fd);
  ::close(out_fd);

  std::vector<ResponseFrame> out;
  const int rfd = ::open(out_path.c_str(), O_RDONLY);
  ResponseFrame resp;
  while (serve::read_response(rfd, &resp) == 1) out.push_back(resp);
  ::close(rfd);
  fs::remove(in_path);
  fs::remove(out_path);
  return out;
}

RequestFrame analyze_frame(const std::string& name, const std::string& body) {
  RequestFrame req;
  req.header = "{\"op\": \"analyze\", \"name\": " + core::json_quote(name) +
               ", \"format\": \"json\"}";
  req.body = body;
  return req;
}

TEST(ServeProtocol, PingStatsShutdownAndUnknownOp) {
  AnalysisService service(cached_opts(fresh_dir("protocol")));
  RequestFrame ping, stats, bad, shutdown;
  ping.header = "{\"op\": \"ping\"}";
  stats.header = "{\"op\": \"stats\"}";
  bad.header = "{\"op\": \"transmogrify\"}";
  shutdown.header = "{\"op\": \"shutdown\"}";

  int rc = -1;
  const auto resps =
      run_stream(service, {ping, stats, bad, shutdown}, "ops", &rc);
  ASSERT_EQ(resps.size(), 4u);
  EXPECT_EQ(rc, 1);  // shutdown requested
  EXPECT_EQ(resps[0].status, 0u);
  EXPECT_TRUE(serve::json_bool_field(resps[0].meta, "pong").value_or(false));
  EXPECT_EQ(resps[1].status, 0u);
  EXPECT_NE(resps[1].body.find("\"requests\""), std::string::npos);
  EXPECT_EQ(resps[2].status, 1u);
  EXPECT_NE(serve::json_string_field(resps[2].meta, "error")
                .value_or("")
                .find("unknown op"),
            std::string::npos);
  EXPECT_TRUE(
      serve::json_bool_field(resps[3].meta, "shutdown").value_or(false));
}

TEST(ServeProtocol, AnalyzeFrameMatchesOneShot) {
  AnalysisService service(cached_opts(fresh_dir("frame")));
  const auto resps = run_stream(
      service, {analyze_frame("tworoots", kTwoRoots)}, "analyze");
  ASSERT_EQ(resps.size(), 1u);
  EXPECT_EQ(resps[0].status, 0u);
  EXPECT_EQ(resps[0].body, oneshot_json("tworoots", kTwoRoots));
  const auto exit = serve::json_num_field(resps[0].meta, "exit");
  ASSERT_TRUE(exit.has_value());
  EXPECT_EQ(static_cast<int>(*exit), 1);  // beta's unflushed write
}

TEST(ServeProtocol, MalformedFrameGetsErrorThenClose) {
  AnalysisService service(cached_opts(""));
  int rc = -1;
  // Valid request after the garbage must NOT be served: the stream is
  // unsynchronized after a bad frame.
  const auto resps =
      run_stream(service, {analyze_frame("tworoots", kTwoRoots)}, "malformed",
                 &rc, "GARBAGE-NOT-A-FRAME");
  ASSERT_EQ(resps.size(), 1u);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(resps[0].status, 1u);
  EXPECT_NE(serve::json_string_field(resps[0].meta, "error")
                .value_or("")
                .find("malformed"),
            std::string::npos);
}

TEST(ServeProtocol, JsonFieldHelpers) {
  const std::string json =
      "{\"name\": \"a \\\"b\\\"\\n\", \"n\": -3.5, \"yes\": true, "
      "\"no\": false}";
  EXPECT_EQ(serve::json_string_field(json, "name").value_or(""), "a \"b\"\n");
  EXPECT_EQ(serve::json_num_field(json, "n").value_or(0), -3.5);
  EXPECT_TRUE(serve::json_bool_field(json, "yes").value_or(false));
  EXPECT_FALSE(serve::json_bool_field(json, "no").value_or(true));
  EXPECT_FALSE(serve::json_string_field(json, "absent").has_value());
  EXPECT_FALSE(serve::json_num_field(json, "name").has_value());
}

TEST(ServeProtocol, WriteToAClosedPeerFailsInsteadOfRaisingSigpipe) {
  // What a client meets when the daemon sheds its connection: the write
  // must fail so the client can retry, not kill the process.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[1]);
  RequestFrame req;
  req.header = "{\"op\": \"ping\"}";
  EXPECT_FALSE(serve::write_request(sv[0], req));
  ::close(sv[0]);
}

TEST(ServeProtocol, DeadlineAboveTheCapIsAnErrorAndTheSessionGoesOn) {
  // A deadline no clock arithmetic can hold is refused by name, without a
  // retry hint; the session then answers its next request.
  AnalysisService service(cached_opts(""));
  std::vector<RequestFrame> reqs;
  for (const char* deadline : {"1e18", "1e300", "1e999"}) {
    RequestFrame req = analyze_frame("tworoots", kTwoRoots);
    req.header.insert(req.header.size() - 1,
                      std::string(", \"deadline_ms\": ") + deadline);
    reqs.push_back(req);
  }
  RequestFrame ping;
  ping.header = "{\"op\": \"ping\"}";
  reqs.push_back(ping);
  const auto resps = run_stream(service, reqs, "deadline_cap");
  ASSERT_EQ(resps.size(), 4u);
  for (size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(reqs[i].header);
    EXPECT_EQ(resps[i].status, serve::kStatusError);
    EXPECT_NE(serve::json_string_field(resps[i].meta, "error")
                  .value_or("")
                  .find("deadline_ms"),
              std::string::npos)
        << resps[i].meta;
    EXPECT_FALSE(
        serve::json_bool_field(resps[i].meta, "retryable").value_or(false));
  }
  EXPECT_TRUE(serve::json_bool_field(resps[3].meta, "pong").value_or(false));
}

TEST(ServeFaults, AcceptTripsStickyPerSession) {
  FaultGuard guard;
  support::arm_fault("serve.accept:2");
  AnalysisService service(cached_opts(fresh_dir("faultaccept")));
  const std::string expect = oneshot_json("tworoots", kTwoRoots);
  const auto frame = analyze_frame("tworoots", kTwoRoots);
  const auto resps =
      run_stream(service, {frame, frame, frame}, "faultaccept");
  ASSERT_EQ(resps.size(), 3u);
  // Request 1 is served; request 2 trips; the trip is sticky for the
  // session, so request 3 errors too — but the stream never dies.
  EXPECT_EQ(resps[0].status, 0u);
  EXPECT_EQ(resps[0].body, expect);
  EXPECT_EQ(resps[1].status, 1u);
  EXPECT_NE(serve::json_string_field(resps[1].meta, "error")
                .value_or("")
                .find("serve.accept"),
            std::string::npos);
  EXPECT_EQ(resps[2].status, 1u);

  // A fresh session gets a fresh scope: trips again at its own 2nd.
  const auto again = run_stream(service, {frame, frame}, "faultaccept2");
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[0].status, 0u);
  EXPECT_EQ(again[0].body, expect);
  EXPECT_EQ(again[1].status, 1u);
}

TEST(ServeFaults, CacheReadTripDegradesToMissWithIdenticalBytes) {
  FaultGuard guard;
  AnalysisService service(cached_opts(fresh_dir("faultread")));
  const std::string expect = oneshot_json("tworoots", kTwoRoots);
  const auto frame = analyze_frame("tworoots", kTwoRoots);
  // Warm the cache first, fault-free.
  run_stream(service, {frame}, "faultread_warm");

  support::arm_fault("cache.read:1");
  const auto resps = run_stream(service, {frame, frame}, "faultread");
  ASSERT_EQ(resps.size(), 2u);
  for (const auto& r : resps) {
    EXPECT_EQ(r.status, 0u);
    EXPECT_EQ(r.body, expect);  // degraded to recompute, identical bytes
  }
  EXPECT_GT(service.cache_stats().read_faults, 0u);
}

TEST(ServeFaults, CacheWriteTripDropsEntryWithIdenticalBytes) {
  FaultGuard guard;
  support::arm_fault("cache.write:1");
  AnalysisService service(cached_opts(fresh_dir("faultwrite")));
  const std::string expect = oneshot_json("tworoots", kTwoRoots);
  const auto frame = analyze_frame("tworoots", kTwoRoots);
  const auto resps = run_stream(service, {frame, frame}, "faultwrite");
  ASSERT_EQ(resps.size(), 2u);
  for (const auto& r : resps) {
    EXPECT_EQ(r.status, 0u);
    EXPECT_EQ(r.body, expect);
  }
  EXPECT_GT(service.cache_stats().write_faults, 0u);
}

// ---------------------------------------------------------------------------
// Live telemetry verbs: metrics / trace / flight, request ids, cache stats
// ---------------------------------------------------------------------------

/// Enables the metrics registry for one test and restores a clean,
/// disabled registry afterwards (mirrors obs_test's ObsSession).
struct ObsOn {
  ObsOn() {
    obs::registry().reset();
    obs::set_enabled(true);
  }
  ~ObsOn() {
    obs::set_enabled(false);
    obs::registry().reset();
  }
};

RequestFrame op_frame(const std::string& header) {
  RequestFrame req;
  req.header = header;
  return req;
}

TEST(ServeTelemetry, MetricsStableSectionByteIdenticalAcrossJobs) {
  // The acceptance bar for `DMRQ metrics`: the stable section is a pure
  // function of the requests analyzed so far, so a daemon answering with
  // "volatile": false returns the same bytes no matter how many worker
  // threads it runs.
  const RequestFrame metrics =
      op_frame("{\"op\": \"metrics\", \"volatile\": false}");
  std::vector<std::string> bodies;
  for (size_t jobs : {size_t{1}, size_t{4}, size_t{16}}) {
    ObsOn obs_on;
    AnalysisService service(
        cached_opts(fresh_dir("metrics_j" + std::to_string(jobs)), jobs));
    const auto frame = analyze_frame("tworoots", kTwoRoots);
    const auto resps = run_stream(service, {frame, frame, metrics},
                                  "metrics_j" + std::to_string(jobs));
    ASSERT_EQ(resps.size(), 3u);
    EXPECT_EQ(resps[2].status, 0u);
    bodies.push_back(resps[2].body);
  }
  EXPECT_NE(bodies[0].find("deepmc-metrics-v1"), std::string::npos);
  EXPECT_NE(bodies[0].find("serve.requests_total"), std::string::npos);
  EXPECT_EQ(bodies[0].find("\"volatile\""), std::string::npos)
      << "\"volatile\": false must strip the volatile section server-side";
  EXPECT_EQ(bodies[0], bodies[1]);
  EXPECT_EQ(bodies[0], bodies[2]);
}

TEST(ServeTelemetry, MetricsFormatsAndUnknownFormat) {
  ObsOn obs_on;
  AnalysisService service(cached_opts(fresh_dir("metrics_fmt")));
  const auto resps = run_stream(
      service,
      {analyze_frame("tworoots", kTwoRoots),
       op_frame("{\"op\": \"metrics\"}"),
       op_frame("{\"op\": \"metrics\", \"format\": \"prom\"}"),
       op_frame("{\"op\": \"metrics\", \"format\": \"xml\"}")},
      "metrics_fmt");
  ASSERT_EQ(resps.size(), 4u);
  // Default JSON keeps the volatile section (uptime and cache gauges).
  EXPECT_EQ(resps[1].status, 0u);
  EXPECT_NE(resps[1].body.find("\"volatile\""), std::string::npos);
  EXPECT_NE(resps[1].body.find("wall_clock"), std::string::npos);
  // Prometheus exposition: prefixed, dotted names flattened.
  EXPECT_EQ(resps[2].status, 0u);
  EXPECT_NE(resps[2].body.find("deepmc_serve_requests_total"),
            std::string::npos);
  EXPECT_NE(resps[2].body.find("# TYPE"), std::string::npos);
  // Unknown format is a per-request error, not a dead stream.
  EXPECT_EQ(resps[3].status, 1u);
  EXPECT_NE(serve::json_string_field(resps[3].meta, "error")
                .value_or("")
                .find("metrics format"),
            std::string::npos);
}

TEST(ServeTelemetry, TraceVerbReturnsSpansTaggedWithRequestId) {
  ObsOn obs_on;
  obs::tracer().arm(256);
  AnalysisService service(cached_opts(fresh_dir("traceverb")));
  auto frame = analyze_frame("tworoots", kTwoRoots);
  frame.header = "{\"op\": \"analyze\", \"id\": \"my-req\", "
                 "\"name\": \"tworoots\", \"format\": \"json\"}";
  const auto resps = run_stream(
      service, {frame, op_frame("{\"op\": \"trace\"}")}, "traceverb");
  obs::tracer().disarm();
  ASSERT_EQ(resps.size(), 2u);
  EXPECT_EQ(resps[1].status, 0u);
  EXPECT_TRUE(
      serve::json_bool_field(resps[1].meta, "active").value_or(false));
  // The window holds the request's spans, tagged with the client's id.
  EXPECT_NE(resps[1].body.find("serve.request"), std::string::npos);
  EXPECT_NE(resps[1].body.find("serve.accept"), std::string::npos);
  EXPECT_NE(resps[1].body.find("my-req"), std::string::npos);
}

TEST(ServeTelemetry, TraceVerbSaysWhetherTracingIsActive) {
  // A daemon started without --trace-ring still answers the trace verb:
  // an empty window, and "active": false in the meta.
  ObsOn obs_on;
  obs::tracer().disarm();
  AnalysisService service(cached_opts(fresh_dir("traceoff")));
  const auto resps =
      run_stream(service, {op_frame("{\"op\": \"trace\"}")}, "traceoff");
  ASSERT_EQ(resps.size(), 1u);
  EXPECT_EQ(resps[0].status, 0u);
  const auto active = serve::json_bool_field(resps[0].meta, "active");
  ASSERT_TRUE(active.has_value()) << resps[0].meta;
  EXPECT_FALSE(*active);
  EXPECT_EQ(resps[0].body.find("\"ph\": \"X\""), std::string::npos);
}

TEST(ServeTelemetry, FlightVerbReturnsRecentEvents) {
  ObsOn obs_on;
  obs::flight().arm(128);
  AnalysisService service(cached_opts(fresh_dir("flightverb")));
  auto frame = analyze_frame("tworoots", kTwoRoots);
  frame.header = "{\"op\": \"analyze\", \"id\": \"fl-1\", "
                 "\"name\": \"tworoots\", \"format\": \"json\"}";
  const auto resps = run_stream(
      service, {frame, op_frame("{\"op\": \"flight\"}")}, "flightverb");
  obs::flight().disarm();
  ASSERT_EQ(resps.size(), 2u);
  EXPECT_EQ(resps[1].status, 0u);
  EXPECT_TRUE(serve::json_bool_field(resps[1].meta, "armed").value_or(false));
  EXPECT_NE(resps[1].body.find("\"kind\": \"serve.request\""),
            std::string::npos);
  EXPECT_NE(resps[1].body.find("\"id\": \"fl-1\""), std::string::npos);
  // JSONL: every line is one object.
  std::istringstream lines(resps[1].body);
  std::string line;
  size_t n = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("{\"seq\": ", 0), 0u) << line;
    ++n;
  }
  EXPECT_GT(n, 0u);
}

TEST(ServeTelemetry, AnalyzeMetaCarriesRequestId) {
  // Ids flow with telemetry off too — they are part of the protocol, and
  // the response *body* must not depend on them (checked against the
  // one-shot oracle).
  AnalysisService service(cached_opts(fresh_dir("reqid")));
  auto tagged = analyze_frame("tworoots", kTwoRoots);
  tagged.header = "{\"op\": \"analyze\", \"id\": \"my-req\", "
                  "\"name\": \"tworoots\", \"format\": \"json\"}";
  const auto resps = run_stream(
      service, {tagged, analyze_frame("tworoots", kTwoRoots)}, "reqid");
  ASSERT_EQ(resps.size(), 2u);
  EXPECT_EQ(serve::json_string_field(resps[0].meta, "id").value_or(""),
            "my-req");
  // Daemon-assigned ids are "req-N"; N is process-wide, so only the
  // prefix is stable across test orderings.
  const std::string assigned =
      serve::json_string_field(resps[1].meta, "id").value_or("");
  EXPECT_EQ(assigned.rfind("req-", 0), 0u) << assigned;
  EXPECT_EQ(resps[0].body, resps[1].body);
  EXPECT_EQ(resps[0].body, oneshot_json("tworoots", kTwoRoots));
}

TEST(ServeTelemetry, StatsBodyExposesEvictionCountersOverProtocol) {
  // What `deepmc serve --cache-stats` prints is the stats op's body; the
  // LRU eviction counters must survive the protocol round trip.
  ServeOptions sopts = cached_opts(fresh_dir("stats_evict"));
  sopts.cache_limits.max_entries = 1;
  AnalysisService service(std::move(sopts));
  const auto frame = analyze_frame("tworoots", kTwoRoots);
  const auto resps = run_stream(
      service, {frame, frame, op_frame("{\"op\": \"stats\"}")}, "stats_evict");
  ASSERT_EQ(resps.size(), 3u);
  EXPECT_EQ(resps[2].status, 0u);
  const auto evictions = serve::json_num_field(resps[2].body, "evictions");
  ASSERT_TRUE(evictions.has_value());
  EXPECT_GT(*evictions, 0);
  const auto evicted = serve::json_num_field(resps[2].body, "evicted_bytes");
  ASSERT_TRUE(evicted.has_value());
  EXPECT_GT(*evicted, 0);
  EXPECT_NE(resps[2].body.find("\"entries\""), std::string::npos);
  EXPECT_NE(resps[2].body.find("\"bytes\""), std::string::npos);
}

TEST(ServeTelemetry, DrainEventDetailIsJson) {
  // A drained daemon's flight dump stays JSONL: serve.drain carries its
  // reason as a JSON pair.
  obs::flight().arm(16);
  AnalysisService service(cached_opts(""));
  serve::ServeDaemon daemon(service, {});
  daemon.begin_drain("shutdown");
  const std::vector<obs::Event> events = obs::flight().events();
  obs::flight().disarm();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "serve.drain");
  std::string detail;
  events[0].args.append_json(detail);
  EXPECT_EQ(detail, "{\"reason\": \"shutdown\"}");
  EXPECT_EQ(serve::json_string_field(detail, "reason"), "shutdown");
}

// ---------------------------------------------------------------------------
// Multi-client fleet: ServeDaemon + ServeClient end to end
// ---------------------------------------------------------------------------

/// In-process daemon bound to a fresh Unix socket (and optionally a TCP
/// ephemeral port), with run() on a background thread. Drained on
/// destruction; listeners are live as soon as the constructor returns.
class FleetDaemon {
 public:
  FleetDaemon(AnalysisService& service, serve::DaemonOptions dopts,
              const std::string& tag, bool tcp = false)
      : daemon_(service, dopts),
        socket_path_(::testing::TempDir() + "dmc_" + tag + ".sock") {
    fs::remove(socket_path_);
    std::string err;
    EXPECT_TRUE(daemon_.listen_unix(socket_path_, &err)) << err;
    if (tcp) {
      EXPECT_TRUE(daemon_.listen_tcp("127.0.0.1:0", &err)) << err;
    }
    runner_ = std::thread([this] { rc_ = daemon_.run(); });
  }
  ~FleetDaemon() {
    stop();
    fs::remove(socket_path_);
  }
  void stop() {
    daemon_.begin_drain("test-teardown");
    if (runner_.joinable()) runner_.join();
  }
  [[nodiscard]] const std::string& socket_path() const { return socket_path_; }
  [[nodiscard]] std::string tcp_target() const {
    return "127.0.0.1:" + std::to_string(daemon_.tcp_port());
  }
  serve::ServeDaemon& daemon() { return daemon_; }
  /// Valid after stop().
  [[nodiscard]] int run_rc() const { return rc_; }

 private:
  serve::ServeDaemon daemon_;
  std::string socket_path_;
  std::thread runner_;
  int rc_ = -1;
};

/// Distinct self-contained modules (distinct cache keys): even indices
/// are clean, odd ones carry a missing-flush warning.
std::string fleet_program(size_t idx) {
  std::ostringstream os;
  os << "module \"fleet" << idx << "\"\nstruct %rec { i64, i64 }\n\n"
     << "define void @root" << idx << "() {\nentry:\n"
     << "  %r = pm.alloc %rec\n"
     << "  %f = gep %r, " << (idx % 2) << "\n"
     << "  store i64 " << (idx + 1) << ", %f !loc(\"fleet.c\", 5)\n";
  if (idx % 2 == 0) os << "  pm.flush %f, 8\n  pm.fence\n";
  os << "  ret\n}\n";
  return os.str();
}

TEST(ServeFleet, ConcurrentClientsByteIdentityAcrossJobs) {
  // Four clients hammering four distinct programs through a shared
  // daemon must each get the one-shot driver's exact bytes — at any
  // --jobs, whatever mix of cold runs and cache hits the interleaving
  // produces.
  std::vector<std::string> programs, expect;
  for (size_t p = 0; p < 4; ++p) {
    programs.push_back(fleet_program(p));
    expect.push_back(
        oneshot_json("fleet" + std::to_string(p), programs.back()));
  }
  for (size_t jobs : {1u, 4u, 16u}) {
    SCOPED_TRACE(jobs);
    const std::string tag = "fleet_j" + std::to_string(jobs);
    AnalysisService service(cached_opts(fresh_dir(tag), jobs));
    serve::DaemonOptions dopts;
    dopts.max_sessions = 4;
    FleetDaemon fleet(service, dopts, tag);

    std::atomic<uint64_t> mismatches{0}, failures{0};
    std::vector<std::thread> clients;
    for (size_t c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        serve::ServeClient client(fleet.socket_path());
        for (size_t i = 0; i < 6; ++i) {
          const size_t p = (c + i) % programs.size();
          ResponseFrame resp;
          std::string err;
          if (!client.call(
                  analyze_frame("fleet" + std::to_string(p), programs[p]),
                  &resp, &err) ||
              resp.status != serve::kStatusOk) {
            ++failures;
            continue;
          }
          if (resp.body != expect[p]) ++mismatches;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(mismatches.load(), 0u);
    fleet.stop();
    EXPECT_EQ(fleet.run_rc(), 0);
    EXPECT_GE(fleet.daemon().stats().sessions, 4u);
  }
}

TEST(ServeFleet, TcpTransportMatchesUnixAndOneShot) {
  // Same daemon, both transports: the TCP ephemeral-port listener must
  // serve byte-identical responses to the Unix socket and the oracle.
  AnalysisService service(cached_opts(fresh_dir("fleet_tcp")));
  FleetDaemon fleet(service, {}, "fleet_tcp", /*tcp=*/true);
  ASSERT_NE(fleet.daemon().tcp_port(), 0);
  const std::string expect = oneshot_json("tworoots", kTwoRoots);
  for (const std::string& target :
       std::vector<std::string>{fleet.socket_path(), fleet.tcp_target()}) {
    SCOPED_TRACE(target);
    serve::ServeClient client(target);
    RequestFrame ping;
    ping.header = "{\"op\": \"ping\"}";
    ResponseFrame resp;
    std::string err;
    ASSERT_TRUE(client.call(ping, &resp, &err)) << err;
    EXPECT_EQ(resp.status, serve::kStatusOk);
    ASSERT_TRUE(
        client.call(analyze_frame("tworoots", kTwoRoots), &resp, &err))
        << err;
    EXPECT_EQ(resp.status, serve::kStatusOk);
    EXPECT_EQ(resp.body, expect);
  }
}

TEST(ServeTelemetry, EachSessionRecordsOnALaneOfItsOwn) {
  // Two clients keep their connections open at once, so two session
  // threads serve them. Each session is labeled with a tid past the pool
  // workers', so its spans land on a trace lane of its own and never on
  // tid 0, the main thread's lane.
  obs::tracer().arm(obs::Recorder::kUnbounded);
  AnalysisService service(cached_opts(fresh_dir("lanes")));
  serve::DaemonOptions dopts;
  dopts.max_sessions = 2;
  const std::vector<std::string> ids = {"lane-a", "lane-b"};
  {
    FleetDaemon fleet(service, dopts, "lanes");
    std::atomic<size_t> answered{0};
    std::atomic<uint64_t> failures{0};
    std::vector<std::thread> clients;
    for (const std::string& id : ids)
      clients.emplace_back([&, id] {
        serve::ServeClient client(fleet.socket_path());
        RequestFrame frame = analyze_frame("tworoots", kTwoRoots);
        frame.header = "{\"op\": \"analyze\", \"id\": \"" + id +
                       "\", \"name\": \"tworoots\", \"format\": \"json\"}";
        for (int i = 0; i < 3; ++i) {
          ResponseFrame resp;
          std::string err;
          if (!client.call(frame, &resp, &err) ||
              resp.status != serve::kStatusOk)
            ++failures;
          // Both connections are open before either sends again.
          answered.fetch_add(1);
          while (answered.load() < ids.size()) std::this_thread::yield();
        }
      });
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0u);
  }
  const std::vector<obs::Event> events = obs::tracer().events();
  obs::tracer().disarm();

  std::map<std::string, std::set<uint32_t>> lanes;  // request id -> tids
  for (const obs::Event& e : events) {
    if (std::string_view(e.name) != "serve.accept") continue;
    EXPECT_NE(e.tid, 0u) << "a session span on the main thread's lane";
    std::string args;
    e.args.append_json(args);
    for (const std::string& id : ids)
      if (args.find("\"" + id + "\"") != std::string::npos)
        lanes[id].insert(e.tid);
  }
  ASSERT_EQ(lanes[ids[0]].size(), 1u);
  ASSERT_EQ(lanes[ids[1]].size(), 1u);
  EXPECT_NE(*lanes[ids[0]].begin(), *lanes[ids[1]].begin());
  const auto labels = obs::thread_labels();
  const std::map<uint32_t, std::string> names(labels.begin(), labels.end());
  for (const std::string& id : ids)
    EXPECT_EQ(names.at(*lanes[id].begin()).rfind("session-", 0), 0u) << id;
}

TEST(ServeFleet, DeadlineExpiryDegradesRequestNotDaemon) {
  // A 1 ms client deadline on a diamond-heavy module fires mid-analysis:
  // the response arrives promptly, flagged deadline_expired, degraded or
  // failed — and the daemon then serves a normal request bit-exact.
  AnalysisService service(cached_opts(fresh_dir("fleet_deadline")));
  FleetDaemon fleet(service, {}, "fleet_deadline");
  serve::ServeClient client(fleet.socket_path());

  RequestFrame slow;
  slow.header =
      "{\"op\": \"analyze\", \"name\": \"slowmod\", \"format\": \"json\", "
      "\"deadline_ms\": 1}";
  slow.body = slow_module_text();
  ResponseFrame resp;
  std::string err;
  ASSERT_TRUE(client.call(slow, &resp, &err)) << err;
  EXPECT_EQ(resp.status, serve::kStatusOk);
  EXPECT_TRUE(
      serve::json_bool_field(resp.meta, "deadline_expired").value_or(false))
      << resp.meta;
  const bool failed =
      serve::json_bool_field(resp.meta, "failed").value_or(false);
  const bool degraded =
      serve::json_bool_field(resp.meta, "degraded").value_or(false);
  EXPECT_TRUE(failed || degraded) << resp.meta;
  EXPECT_NE(resp.body.find("wall-clock"), std::string::npos);

  // The request degraded; the daemon did not.
  ASSERT_TRUE(client.call(analyze_frame("tworoots", kTwoRoots), &resp, &err))
      << err;
  EXPECT_EQ(resp.status, serve::kStatusOk);
  EXPECT_FALSE(
      serve::json_bool_field(resp.meta, "deadline_expired").value_or(true));
  EXPECT_EQ(resp.body, oneshot_json("tworoots", kTwoRoots));
}

TEST(ServeFleet, DaemonRequestTimeoutBoundsClientsWithNoDeadline) {
  // --request-timeout-ms applies even when the client sends no deadline
  // header: the daemon never waits longer than its own bound.
  AnalysisService service(cached_opts(fresh_dir("fleet_dto")));
  serve::DaemonOptions dopts;
  dopts.request_timeout_ms = 1;
  FleetDaemon fleet(service, dopts, "fleet_dto");
  serve::ServeClient client(fleet.socket_path());
  ResponseFrame resp;
  std::string err;
  ASSERT_TRUE(
      client.call(analyze_frame("slowmod", slow_module_text()), &resp, &err))
      << err;
  EXPECT_EQ(resp.status, serve::kStatusOk);
  EXPECT_TRUE(
      serve::json_bool_field(resp.meta, "deadline_expired").value_or(false))
      << resp.meta;
}

TEST(ServeFleet, ShedIsDeterministicAndClientRetriesToSuccess) {
  // One session slot, one queue slot. A holds the slot with a partial
  // frame (released only by the I/O bound), B parks in the queue, so the
  // next connection is deterministically shed with a retryable status-2
  // — and a retrying client eventually lands once the stalled pair ages
  // out.
  AnalysisService service(cached_opts(fresh_dir("fleet_shed")));
  serve::DaemonOptions dopts;
  dopts.max_sessions = 1;
  dopts.accept_queue = 1;
  dopts.io_timeout_ms = 500;
  FleetDaemon fleet(service, dopts, "fleet_shed");

  std::string err;
  const int a = serve::connect_target(fleet.socket_path(), &err);
  ASSERT_GE(a, 0) << err;
  ASSERT_TRUE(serve::write_exact(a, "DM", 2));  // partial magic, then stall
  // Wait until A occupies the session slot — otherwise B races the
  // worker's queue pop and gets shed instead of parked.
  const auto wait_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fleet.daemon().stats().sessions < 1 &&
         std::chrono::steady_clock::now() < wait_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(fleet.daemon().stats().sessions, 1u);
  const int b = serve::connect_target(fleet.socket_path(), &err);
  ASSERT_GE(b, 0) << err;

  // Raw probe: queue full -> unsolicited overloaded response, closed.
  const int d = serve::connect_target(fleet.socket_path(), &err);
  ASSERT_GE(d, 0) << err;
  ResponseFrame shed;
  ASSERT_EQ(serve::read_response(d, &shed), 1);
  EXPECT_EQ(shed.status, serve::kStatusOverloaded);
  EXPECT_TRUE(serve::json_bool_field(shed.meta, "retryable").value_or(false));
  ::close(d);

  // Retrying client: absorbs the shed storm, succeeds after the bound.
  serve::RetryPolicy rp;
  rp.max_retries = 100;
  rp.retry_budget_ms = 20000;
  rp.base_delay_ms = 20;
  rp.max_delay_ms = 100;
  serve::ServeClient client(fleet.socket_path(), rp);
  RequestFrame ping;
  ping.header = "{\"op\": \"ping\"}";
  ResponseFrame resp;
  ASSERT_TRUE(client.call(ping, &resp, &err)) << err;
  EXPECT_EQ(resp.status, serve::kStatusOk);
  EXPECT_GE(client.stats().overloaded, 1u);
  EXPECT_GE(client.stats().retries, 1u);
  EXPECT_GE(client.stats().reconnects, 2u);

  ::close(a);
  ::close(b);
  fleet.stop();
  const serve::ServeDaemon::Stats stats = fleet.daemon().stats();
  EXPECT_GE(stats.shed, 2u);
  EXPECT_GE(stats.accepted, 4u);
}

TEST(ServeFleet, IoTimeoutClosesStalledSessionAndFreesSlot) {
  // A slowloris connection is cut at the I/O bound (clean EOF on its
  // side, no response owed) and its session slot is immediately
  // reusable.
  AnalysisService service(cached_opts(fresh_dir("fleet_iotmo")));
  serve::DaemonOptions dopts;
  dopts.max_sessions = 1;
  dopts.io_timeout_ms = 100;
  FleetDaemon fleet(service, dopts, "fleet_iotmo");

  std::string err;
  const int s = serve::connect_target(fleet.socket_path(), &err);
  ASSERT_GE(s, 0) << err;
  ASSERT_TRUE(serve::write_exact(s, "DMRQ", 4));
  char byte = 0;
  EXPECT_EQ(serve::read_exact(s, &byte, 1), 0);  // daemon closed: clean EOF
  ::close(s);

  serve::ServeClient client(fleet.socket_path());
  RequestFrame ping;
  ping.header = "{\"op\": \"ping\"}";
  ResponseFrame resp;
  ASSERT_TRUE(client.call(ping, &resp, &err)) << err;
  EXPECT_EQ(resp.status, serve::kStatusOk);
}

// ---------------------------------------------------------------------------
// Transport contract: frame reads under the daemon's I/O bound, and the
// endpoint syntax --listen and --connect accept
// ---------------------------------------------------------------------------

/// The I/O bound the frame tests run the daemon under. Every wait below is
/// a fraction of it, far enough from 1 that scheduling noise cannot flip
/// an outcome.
constexpr uint64_t kFrameWindowMs = 500;

void sleep_windows(double fraction) {
  std::this_thread::sleep_for(std::chrono::milliseconds(
      static_cast<int64_t>(static_cast<double>(kFrameWindowMs) * fraction)));
}

/// A raw connection whose reads give up after 10 s, so a daemon that
/// neither answers nor closes fails the test instead of hanging it.
int raw_connect(const std::string& target) {
  std::string err;
  const int fd = serve::connect_target(target, &err);
  EXPECT_GE(fd, 0) << err;
  if (fd >= 0) {
    const timeval tv{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  return fd;
}

/// A request head in the documented layout: magic, then version,
/// header_len and body_len as little-endian u32s.
std::string request_head(const char* magic, uint32_t version,
                         uint32_t header_len, uint32_t body_len) {
  std::string out(magic, 4);
  for (const uint32_t v : {version, header_len, body_len})
    for (int i = 0; i < 4; ++i) out += static_cast<char>(v >> (8 * i));
  return out;
}

constexpr std::string_view kPingHeader = "{\"op\": \"ping\"}";

std::string ping_bytes() {
  return request_head("DMRQ", 1, kPingHeader.size(), 0) +
         std::string(kPingHeader);
}

void expect_pong(int fd) {
  ResponseFrame resp;
  ASSERT_EQ(serve::read_response(fd, &resp), 1);
  EXPECT_EQ(resp.status, serve::kStatusOk);
  EXPECT_TRUE(serve::json_bool_field(resp.meta, "pong").value_or(false))
      << resp.meta;
}

/// One "malformed request frame" error, then EOF.
void expect_malformed_then_eof(int fd) {
  ResponseFrame resp;
  ASSERT_EQ(serve::read_response(fd, &resp), 1);
  EXPECT_EQ(resp.status, serve::kStatusError);
  EXPECT_EQ(serve::json_string_field(resp.meta, "error").value_or(""),
            "malformed request frame");
  EXPECT_EQ(serve::read_response(fd, &resp), 0);
}

serve::DaemonOptions frame_daemon_opts() {
  serve::DaemonOptions dopts;
  dopts.io_timeout_ms = kFrameWindowMs;
  return dopts;
}

TEST(ServeFrame, IdleClockRestartsAtTheFirstByte) {
  // 1.2 windows from connect to the frame's last byte: answered, because
  // the idle window ends at the first byte and the rest gets a fresh one.
  AnalysisService service(cached_opts(""));
  FleetDaemon fleet(service, frame_daemon_opts(), "frame_idle");
  const int fd = raw_connect(fleet.socket_path());
  ASSERT_GE(fd, 0);
  const std::string frame = ping_bytes();
  sleep_windows(0.6);
  ASSERT_TRUE(serve::write_exact(fd, frame.data(), 1));
  sleep_windows(0.6);
  ASSERT_TRUE(serve::write_exact(fd, frame.data() + 1, frame.size() - 1));
  expect_pong(fd);
  ::close(fd);
}

TEST(ServeFrame, FrameDrippedWithinOneWindowIsAnswered) {
  AnalysisService service(cached_opts(""));
  FleetDaemon fleet(service, frame_daemon_opts(), "frame_drip");
  const int fd = raw_connect(fleet.socket_path());
  ASSERT_GE(fd, 0);
  const std::string frame = ping_bytes();  // 30 bytes over 0.3 windows
  for (const char& c : frame) {
    ASSERT_TRUE(serve::write_exact(fd, &c, 1));
    sleep_windows(0.01);
  }
  expect_pong(fd);
  ::close(fd);
}

TEST(ServeFrame, StalledPayloadIsClosedWithoutAResponse) {
  AnalysisService service(cached_opts(""));
  FleetDaemon fleet(service, frame_daemon_opts(), "frame_stall");
  const int fd = raw_connect(fleet.socket_path());
  ASSERT_GE(fd, 0);
  const std::string partial =
      request_head("DMRQ", 1, kPingHeader.size(), 0) +
      std::string(kPingHeader.substr(0, kPingHeader.size() / 2));
  ASSERT_TRUE(serve::write_exact(fd, partial.data(), partial.size()));
  ResponseFrame resp;
  EXPECT_EQ(serve::read_response(fd, &resp), 0);  // closed, nothing owed
  ::close(fd);
}

TEST(ServeFrame, BadHeadGetsOneErrorThenEof) {
  // No payload follows any of these heads: each is judged on its 16 bytes,
  // before the daemon waits for a payload byte.
  AnalysisService service(cached_opts(""));
  FleetDaemon fleet(service, frame_daemon_opts(), "frame_badhead");
  const struct {
    const char* what;
    std::string head;
  } cases[] = {
      {"magic", request_head("DMRX", 1, kPingHeader.size(), 0)},
      {"version", request_head("DMRQ", 2, kPingHeader.size(), 0)},
      {"header_len", request_head("DMRQ", 1, (1u << 20) + 1, 0)},
      {"body_len", request_head("DMRQ", 1, 0, (256u << 20) + 1)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    const int fd = raw_connect(fleet.socket_path());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(serve::write_exact(fd, c.head.data(), c.head.size()));
    expect_malformed_then_eof(fd);
    ::close(fd);
  }
}

TEST(ServeFrame, HalfCloseMidFrameGetsMalformedResponse) {
  AnalysisService service(cached_opts(""));
  FleetDaemon fleet(service, frame_daemon_opts(), "frame_halfclose");
  const std::string frame = ping_bytes();
  for (const size_t sent : {size_t{8}, frame.size() - 3}) {
    SCOPED_TRACE(sent);
    const int fd = raw_connect(fleet.socket_path());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(serve::write_exact(fd, frame.data(), sent));
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
    expect_malformed_then_eof(fd);
    ::close(fd);
  }
}

/// Pings the daemon at `target` over a fresh connection.
void expect_reachable(const std::string& target) {
  SCOPED_TRACE(target);
  const int fd = raw_connect(target);
  ASSERT_GE(fd, 0);
  RequestFrame ping;
  ping.header = std::string(kPingHeader);
  ASSERT_TRUE(serve::write_request(fd, ping));
  expect_pong(fd);
  ::close(fd);
}

/// Runs `daemon` on a thread for the life of the object.
class DaemonRunner {
 public:
  explicit DaemonRunner(serve::ServeDaemon& daemon)
      : daemon_(daemon), thread_([this] { daemon_.run(); }) {}
  ~DaemonRunner() {
    daemon_.begin_drain("test-teardown");
    thread_.join();
  }
  DaemonRunner(const DaemonRunner&) = delete;
  DaemonRunner& operator=(const DaemonRunner&) = delete;

 private:
  serve::ServeDaemon& daemon_;
  std::thread thread_;
};

TEST(ServeEndpoint, ListenTcpBindsAnEphemeralPortForEachSpelling) {
  AnalysisService service(cached_opts(""));
  for (const char* spec : {"127.0.0.1:0", ":0", "0"}) {
    SCOPED_TRACE(spec);
    serve::ServeDaemon daemon(service, {});
    std::string err;
    ASSERT_TRUE(daemon.listen_tcp(spec, &err)) << err;
    ASSERT_NE(daemon.tcp_port(), 0);
    const std::string port = std::to_string(daemon.tcp_port());
    DaemonRunner runner(daemon);
    expect_reachable("127.0.0.1:" + port);
    expect_reachable(":" + port);
  }
}

TEST(ServeEndpoint, BadListenSpecsFailWithTheirMessages) {
  AnalysisService service(cached_opts(""));
  const struct {
    const char* spec;
    const char* message;
  } cases[] = {
      {"host:", "bad TCP listen spec 'host:' (want host:port)"},
      {"127.0.0.1:70000",
       "bad TCP listen spec '127.0.0.1:70000' (want host:port)"},
      {"not-an-ip:80", "bad TCP listen address 'not-an-ip'"},
  };
  for (const auto& c : cases) {
    serve::ServeDaemon daemon(service, {});
    std::string err;
    EXPECT_FALSE(daemon.listen_tcp(c.spec, &err)) << c.spec;
    EXPECT_EQ(err, c.message);
  }
}

TEST(ServeEndpoint, UnixPathWithAColonStaysAPath) {
  // "x:1.sock" ends in something that is not a port: a path on both sides.
  AnalysisService service(cached_opts(""));
  const std::string path = fresh_dir("endpoint_colon") + "/x:1.sock";
  serve::ServeDaemon daemon(service, {});
  std::string err;
  ASSERT_TRUE(daemon.listen_unix(path, &err)) << err;
  DaemonRunner runner(daemon);
  expect_reachable(path);
}

TEST(ServeEndpoint, ConnectTargetsThatCannotBeDialledArePaths) {
  // Only host:port with a port of 1-65535 is dialled over TCP. These name
  // no file in the working directory, so as paths they fail with ENOENT;
  // dialled, they would be refused instead.
  for (const std::string target : {":0", "127.0.0.1:0", "8080"}) {
    std::string err;
    EXPECT_EQ(serve::connect_target(target, &err), -1) << target;
    EXPECT_EQ(err, "connect " + target + ": " + std::strerror(ENOENT));
  }
}

TEST(ServeEndpoint, OverlongUnixPathFailsOnBothSides) {
  AnalysisService service(cached_opts(""));
  const size_t limit = sizeof(sockaddr_un::sun_path);
  for (const size_t length : {limit, limit + 20}) {
    const std::string dir = ::testing::TempDir();
    const std::string path = dir + std::string(length - dir.size(), 'p');
    ASSERT_EQ(path.size(), length);
    serve::ServeDaemon daemon(service, {});
    std::string err;
    EXPECT_FALSE(daemon.listen_unix(path, &err));
    EXPECT_EQ(err, "socket path too long: " + path);
    err.clear();
    EXPECT_EQ(serve::connect_target(path, &err), -1);
    EXPECT_EQ(err, "socket path too long: " + path);
  }
}

}  // namespace
}  // namespace deepmc
