// Tests for the analysis layer: call graph (post-order, SCCs), DSA/DSG
// (field sensitivity, persistence propagation, unification), and the
// bounded trace collector.
#include <gtest/gtest.h>

#include <set>

#include "analysis/callgraph.h"
#include "analysis/dsa.h"
#include "analysis/trace.h"
#include "ir/parser.h"
#include "ir/verifier.h"

namespace deepmc::analysis {
namespace {

using ir::Function;
using ir::Module;
using ir::parse_module;

std::unique_ptr<Module> parse_checked(const char* text) {
  auto m = parse_module(text);
  ir::verify_or_throw(*m);
  return m;
}

// --- call graph ---------------------------------------------------------------

TEST(CallGraphTest, PostOrderPutsCalleesFirst) {
  auto m = parse_checked(R"(
define void @leaf() {
entry:
  ret
}
define void @mid() {
entry:
  call @leaf()
  ret
}
define void @top() {
entry:
  call @mid()
  ret
}
)");
  CallGraph cg(*m);
  const auto& order = cg.post_order();
  auto pos = [&](const char* name) {
    for (size_t i = 0; i < order.size(); ++i)
      if (order[i]->name() == name) return i;
    return static_cast<size_t>(-1);
  };
  EXPECT_LT(pos("leaf"), pos("mid"));
  EXPECT_LT(pos("mid"), pos("top"));
}

TEST(CallGraphTest, RecursionDetected) {
  auto m = parse_checked(R"(
define void @a() {
entry:
  call @b()
  ret
}
define void @b() {
entry:
  call @a()
  ret
}
define void @self() {
entry:
  call @self()
  ret
}
define void @plain() {
entry:
  ret
}
)");
  CallGraph cg(*m);
  EXPECT_TRUE(cg.is_recursive(m->find_function("a")));
  EXPECT_TRUE(cg.is_recursive(m->find_function("b")));
  EXPECT_TRUE(cg.is_recursive(m->find_function("self")));
  EXPECT_FALSE(cg.is_recursive(m->find_function("plain")));
  EXPECT_EQ(cg.scc_id(m->find_function("a")),
            cg.scc_id(m->find_function("b")));
  EXPECT_NE(cg.scc_id(m->find_function("a")),
            cg.scc_id(m->find_function("self")));
}

TEST(CallGraphTest, CallSitesAndUnknownCalleesSkipped) {
  auto m = parse_checked(R"(
define void @f() {
entry:
  call @g()
  call @missing_external()
  ret
}
define void @g() {
entry:
  ret
}
)");
  CallGraph cg(*m);
  EXPECT_EQ(cg.call_sites(m->find_function("f")).size(), 2u);
  EXPECT_EQ(cg.callees(m->find_function("f")).size(), 1u);
}

TEST(CallGraphTest, ClosureFollowsDirectCallsFromRoots) {
  auto m = parse_checked(R"(
module "m"
struct %obj { i64 }
declare void @external(%obj*)

define void @leaf(%obj* %o) {
entry:
  ret
}

define void @mid(%obj* %o) {
entry:
  call @leaf(%o)
  ret
}

define void @root() {
entry:
  %o = pm.alloc %obj
  call @mid(%o)
  call @external(%o)
  ret
}

define void @orphan() {
entry:
  ret
}
)");
  CallGraph cg(*m);
  const std::set<const Function*> closure =
      cg.closure({m->find_function("root")});
  auto in = [&](const char* name) {
    return closure.count(m->find_function(name)) > 0;
  };
  EXPECT_TRUE(in("root"));
  EXPECT_TRUE(in("mid"));
  EXPECT_TRUE(in("leaf"));
  // Declared callees are reached too: the serve cache's coupling rule
  // needs them. The --crashsim verdict asks only about functions that
  // hold warnings, and those are always defined.
  EXPECT_TRUE(in("external"));
  EXPECT_FALSE(in("orphan"));
}

// --- DSA -----------------------------------------------------------------------

TEST(DsaTest, PmAllocIsPersistentAllocaIsNot) {
  auto m = parse_checked(R"(
struct %obj { i64, i64 }
define void @f() {
entry:
  %p = pm.alloc %obj
  %s = alloca %obj
  ret
}
)");
  DSA dsa(*m);
  dsa.run();
  const Function* f = m->find_function("f");
  const auto& insts = f->entry()->instructions();
  EXPECT_TRUE(dsa.points_to_persistent(insts[0].get()));
  EXPECT_FALSE(dsa.points_to_persistent(insts[1].get()));
  EXPECT_EQ(dsa.persistent_node_count(), 1u);
}

TEST(DsaTest, GepIsFieldSensitive) {
  auto m = parse_checked(R"(
struct %obj { i64, i64, i64 }
define void @f() {
entry:
  %p = pm.alloc %obj
  %f0 = gep %p, 0
  %f1 = gep %p, 1
  %f2 = gep %p, 2
  store i64 1, %f1
  ret
}
)");
  DSA dsa(*m);
  dsa.run();
  const auto& insts = m->find_function("f")->entry()->instructions();
  MemRegion r0 = dsa.region_for(insts[1].get(), 8);
  MemRegion r1 = dsa.region_for(insts[2].get(), 8);
  MemRegion r2 = dsa.region_for(insts[3].get(), 8);
  EXPECT_TRUE(r0.same_object(r1));
  EXPECT_TRUE(r0.exact);
  EXPECT_EQ(r0.offset, 0u);
  EXPECT_EQ(r1.offset, 8u);
  EXPECT_EQ(r2.offset, 16u);
  EXPECT_FALSE(r0.overlaps(r1));
  EXPECT_FALSE(r1.overlaps(r2));
  // The node records the modified field offset.
  EXPECT_EQ(r1.node->modified_offsets(), (std::set<uint64_t>{8}));
}

TEST(DsaTest, FieldInsensitiveModeCollapsesOffsets) {
  auto m = parse_checked(R"(
struct %obj { i64, i64 }
define void @f() {
entry:
  %p = pm.alloc %obj
  %f0 = gep %p, 0
  %f1 = gep %p, 1
  ret
}
)");
  DSA::Options opts;
  opts.field_sensitive = false;
  DSA dsa(*m, opts);
  dsa.run();
  const auto& insts = m->find_function("f")->entry()->instructions();
  MemRegion r0 = dsa.region_for(insts[1].get(), 8);
  MemRegion r1 = dsa.region_for(insts[2].get(), 8);
  EXPECT_TRUE(r0.overlaps(r1));  // cannot distinguish fields
}

TEST(DsaTest, DynamicIndexIsInexact) {
  auto m = parse_checked(R"(
struct %obj { [8 x i64] }
define void @f(i64 %i) {
entry:
  %p = pm.alloc %obj
  %arr = gep %p, 0
  %e = gep %arr, %i
  store i64 1, %e
  ret
}
)");
  DSA dsa(*m);
  dsa.run();
  const auto& insts = m->find_function("f")->entry()->instructions();
  MemRegion e = dsa.region_for(insts[2].get(), 8);
  EXPECT_FALSE(e.exact);
  MemRegion whole = dsa.region_for(insts[0].get(), 64);
  EXPECT_TRUE(e.overlaps(whole));  // conservative
}

TEST(DsaTest, PersistencePropagatesThroughCalls) {
  // Figure 9/10: nvm_lock receives a persistent mutex as an argument; the
  // Bottom-Up/Top-Down phases must mark the formal argument persistent.
  auto m = parse_checked(R"(
struct %mutex { i64, i64 }
define void @nvm_lock(%mutex* %omutex) {
entry:
  %m = cast %omutex to %mutex*
  %owners = gep %m, 0
  store i64 1, %owners
  pm.persist %owners, 8
  ret
}
define void @caller() {
entry:
  %mx = pm.alloc %mutex
  call @nvm_lock(%mx)
  ret
}
)");
  DSA dsa(*m);
  dsa.run();
  const Function* lock = m->find_function("nvm_lock");
  EXPECT_TRUE(dsa.points_to_persistent(lock->arg(0)));
  // The cast aliases the argument.
  const auto& insts = lock->entry()->instructions();
  EXPECT_TRUE(dsa.points_to_persistent(insts[0].get()));
  MemRegion arg_r = dsa.region_for(lock->arg(0), 16);
  MemRegion cast_r = dsa.region_for(insts[0].get(), 16);
  EXPECT_TRUE(arg_r.same_object(cast_r));
}

TEST(DsaTest, ReturnValueUnifiedWithCallResult) {
  auto m = parse_checked(R"(
struct %obj { i64 }
define %obj* @make() {
entry:
  %p = pm.alloc %obj
  ret %p
}
define void @user() {
entry:
  %q = call @make()
  %f0 = gep %q, 0
  store i64 3, %f0
  ret
}
)");
  DSA dsa(*m);
  dsa.run();
  const Function* user = m->find_function("user");
  const auto& insts = user->entry()->instructions();
  EXPECT_TRUE(dsa.points_to_persistent(insts[0].get()));
}

TEST(DsaTest, PointerStoredInFieldIsTracked) {
  auto m = parse_checked(R"(
struct %node { i64, ptr }
define void @f() {
entry:
  %a = pm.alloc %node
  %b = pm.alloc %node
  %link = gep %a, 1
  store %b, %link
  %lv = load %link
  ret
}
)");
  DSA dsa(*m);
  dsa.run();
  const auto& insts = m->find_function("f")->entry()->instructions();
  // Loading the link must alias node b.
  MemRegion loaded = dsa.region_for(insts[4].get(), 8);
  MemRegion b = dsa.region_for(insts[1].get(), 8);
  EXPECT_TRUE(loaded.same_object(b));
}

TEST(DsaTest, UnknownArgumentWithoutCallersStaysUnknown) {
  auto m = parse_checked(R"(
struct %obj { i64 }
define void @orphan(%obj* %p) {
entry:
  %f0 = gep %p, 0
  store i64 1, %f0
  ret
}
)");
  DSA dsa(*m);
  dsa.run();
  const Function* f = m->find_function("orphan");
  EXPECT_FALSE(dsa.points_to_persistent(f->arg(0)));
  DSCell c = dsa.cell_for(f->arg(0));
  ASSERT_FALSE(c.null());
  EXPECT_TRUE(c.node->has(DSNode::kUnknown));
}

// --- trace collection -------------------------------------------------------------

TEST(TraceTest, StraightLineTrace) {
  auto m = parse_checked(R"(
struct %obj { i64, i64 }
define void @f() {
entry:
  %p = pm.alloc %obj
  %f0 = gep %p, 0
  store i64 1, %f0
  pm.flush %f0, 8
  pm.fence
  ret
}
)");
  DSA dsa(*m);
  dsa.run();
  TraceCollector tc(*m, dsa);
  auto traces = tc.collect(*m->find_function("f"));
  ASSERT_EQ(traces.size(), 1u);
  const auto& ev = traces[0].events;
  ASSERT_EQ(ev.size(), 4u);  // pm.alloc, store, flush, fence
  EXPECT_EQ(ev[0].kind, EventKind::kPmAlloc);
  EXPECT_EQ(ev[1].kind, EventKind::kStore);
  EXPECT_TRUE(ev[1].persistent);
  EXPECT_EQ(ev[2].kind, EventKind::kFlush);
  EXPECT_EQ(ev[3].kind, EventKind::kFence);
}

TEST(TraceTest, PersistExpandsToFlushPlusFence) {
  auto m = parse_checked(R"(
struct %obj { i64 }
define void @f() {
entry:
  %p = pm.alloc %obj
  %f0 = gep %p, 0
  store i64 1, %f0
  pm.persist %f0, 8
  ret
}
)");
  DSA dsa(*m);
  dsa.run();
  TraceCollector tc(*m, dsa);
  auto traces = tc.collect(*m->find_function("f"));
  ASSERT_EQ(traces.size(), 1u);
  const auto& ev = traces[0].events;
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[2].kind, EventKind::kFlush);
  EXPECT_EQ(ev[3].kind, EventKind::kFence);
}

TEST(TraceTest, BranchesProduceTwoPaths) {
  auto m = parse_checked(R"(
struct %obj { i64 }
define void @f(i64 %c) {
entry:
  %p = pm.alloc %obj
  %f0 = gep %p, 0
  %cond = eq %c, 0
  br %cond, label %a, label %b
a:
  store i64 1, %f0
  br label %exit
b:
  store i64 2, %f0
  br label %exit
exit:
  pm.persist %f0, 8
  ret
}
)");
  DSA dsa(*m);
  dsa.run();
  TraceCollector tc(*m, dsa);
  auto traces = tc.collect(*m->find_function("f"));
  EXPECT_EQ(traces.size(), 2u);
}

TEST(TraceTest, LoopsAreBounded) {
  auto m = parse_checked(R"(
struct %obj { i64 }
define void @f(i64 %n) {
entry:
  %p = pm.alloc %obj
  %f0 = gep %p, 0
  br label %loop
loop:
  store i64 1, %f0
  br label %check
check:
  %c = eq %n, 0
  br %c, label %exit, label %loop
exit:
  ret
}
)");
  DSA dsa(*m);
  dsa.run();
  TraceOptions opts;
  opts.max_loop_visits = 3;
  TraceCollector tc(*m, dsa, opts);
  auto traces = tc.collect(*m->find_function("f"));
  ASSERT_FALSE(traces.empty());
  // No trace carries more than max_loop_visits copies of the loop store.
  for (const auto& t : traces) {
    size_t stores = 0;
    for (const auto& e : t.events)
      if (e.kind == EventKind::kStore) ++stores;
    EXPECT_LE(stores, 3u);
  }
}

TEST(TraceTest, CalleeTracesSplicedAtCallSite) {
  auto m = parse_checked(R"(
struct %obj { i64 }
define void @child(%obj* %p) {
entry:
  %f0 = gep %p, 0
  store i64 9, %f0
  pm.flush %f0, 8
  ret
}
define void @parent() {
entry:
  %p = pm.alloc %obj
  call @child(%p)
  pm.fence
  ret
}
)");
  DSA dsa(*m);
  dsa.run();
  TraceCollector tc(*m, dsa);
  auto traces = tc.collect(*m->find_function("parent"));
  ASSERT_EQ(traces.size(), 1u);
  const auto& ev = traces[0].events;
  // pm.alloc, (child: store, flush), fence
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[1].kind, EventKind::kStore);
  EXPECT_TRUE(ev[1].persistent);
  EXPECT_EQ(ev[2].kind, EventKind::kFlush);
  EXPECT_EQ(ev[3].kind, EventKind::kFence);
  // Location metadata points into the callee.
  EXPECT_EQ(ev[1].inst->parent()->parent()->name(), "child");
}

TEST(TraceTest, RecursionIsBounded) {
  auto m = parse_checked(R"(
struct %obj { i64 }
define void @rec(%obj* %p, i64 %n) {
entry:
  %f0 = gep %p, 0
  store i64 1, %f0
  %c = eq %n, 0
  br %c, label %stop, label %go
go:
  call @rec(%p, %n)
  br label %stop
stop:
  ret
}
)");
  DSA dsa(*m);
  dsa.run();
  TraceOptions opts;
  opts.max_recursion = 3;
  TraceCollector tc(*m, dsa, opts);
  auto traces = tc.collect(*m->find_function("rec"));
  ASSERT_FALSE(traces.empty());
  for (const auto& t : traces) {
    size_t stores = 0;
    for (const auto& e : t.events)
      if (e.kind == EventKind::kStore) ++stores;
    EXPECT_LE(stores, 4u);  // depth-bounded inlining
  }
}

TEST(TraceTest, PathBudgetCapsExplosion) {
  // 20 sequential diamonds = 2^20 paths; the collector must stay bounded.
  std::string text = "struct %obj { i64 }\ndefine void @f(i64 %c) {\nentry:\n"
                     "  %p = pm.alloc %obj\n  %f0 = gep %p, 0\n"
                     "  br label %d0\n";
  for (int i = 0; i < 20; ++i) {
    std::string d = std::to_string(i), n = std::to_string(i + 1);
    text += "d" + d + ":\n  %c" + d + " = eq %c, " + d + "\n  br %c" + d +
            ", label %a" + d + ", label %b" + d + "\n" +
            "a" + d + ":\n  store i64 1, %f0\n  br label %d" + n + "\n" +
            "b" + d + ":\n  store i64 2, %f0\n  br label %d" + n + "\n";
  }
  text += "d20:\n  ret\n}\n";
  auto m = parse_checked(text.c_str());
  DSA dsa(*m);
  dsa.run();
  TraceOptions opts;
  opts.max_paths = 64;
  TraceCollector tc(*m, dsa, opts);
  auto traces = tc.collect(*m->find_function("f"));
  EXPECT_LE(traces.size(), 64u);
  EXPECT_GE(traces.size(), 1u);
}

TEST(TraceTest, RegionMarkersAppearInTraces) {
  auto m = parse_checked(R"(
struct %obj { i64 }
define void @f() {
entry:
  %p = pm.alloc %obj
  epoch.begin
  %f0 = gep %p, 0
  store i64 1, %f0
  epoch.end
  ret
}
)");
  DSA dsa(*m);
  dsa.run();
  TraceCollector tc(*m, dsa);
  auto traces = tc.collect(*m->find_function("f"));
  ASSERT_EQ(traces.size(), 1u);
  const auto& ev = traces[0].events;
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[1].kind, EventKind::kTxBegin);
  EXPECT_EQ(ev[1].region_kind, ir::RegionKind::kEpoch);
  EXPECT_EQ(ev[3].kind, EventKind::kTxEnd);
}

}  // namespace
}  // namespace deepmc::analysis
