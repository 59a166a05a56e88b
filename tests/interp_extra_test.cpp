// Additional interpreter coverage: allocation lifecycle, argument passing,
// cast chains, error paths, mixed volatile/persistent data movement, and
// the limits of the volatile arena and of memset/memcpy ranges.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "interp/interp.h"
#include "ir/parser.h"
#include "ir/verifier.h"

namespace deepmc::interp {
namespace {

std::unique_ptr<ir::Module> parse_checked(const char* text) {
  auto m = ir::parse_module(text);
  ir::verify_or_throw(*m);
  return m;
}

TEST(InterpExtra, PmFreeReturnsMemoryToThePool) {
  auto m = parse_checked(R"(
struct %o { i64 }
define i64 @main() {
entry:
  %a = pm.alloc %o
  pm.free %a
  %b = pm.alloc %o
  ret %b
}
)");
  pmem::PmPool pool(1 << 16, pmem::LatencyModel::zero());
  Interpreter interp(*m, pool);
  auto b = interp.run_main();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(pool.live_allocations(), 1u);  // freed slot was reused
}

TEST(InterpExtra, ArgumentsPassPositionally) {
  auto m = parse_checked(R"(
define i64 @weigh(i64 %a, i64 %b, i64 %c) {
entry:
  %ab = mul %a, 100
  %s1 = add %ab, %b
  %s2 = mul %s1, 10
  %s3 = add %s2, %c
  ret %s3
}
define i64 @main() {
entry:
  %r = call @weigh(i64 1, i64 2, i64 3)
  ret %r
}
)");
  pmem::PmPool pool(1 << 16, pmem::LatencyModel::zero());
  Interpreter interp(*m, pool);
  EXPECT_EQ(interp.run_main(), 1023u);
}

TEST(InterpExtra, CastChainPreservesAddress) {
  auto m = parse_checked(R"(
struct %a { i64, i64 }
struct %b { i64 }
define i64 @main() {
entry:
  %p = pm.alloc %a
  %f1 = gep %p, 1
  store i64 77, %f1
  %q = cast %f1 to %b*
  %r = cast %q to %b*
  %g0 = gep %r, 0
  %v = load %g0
  ret %v
}
)");
  pmem::PmPool pool(1 << 16, pmem::LatencyModel::zero());
  Interpreter interp(*m, pool);
  EXPECT_EQ(interp.run_main(), 77u);
}

TEST(InterpExtra, SmallIntWidthsTruncate) {
  auto m = parse_checked(R"(
define i64 @main() {
entry:
  %s = alloca i8
  store i8 300, %s
  %v = load %s
  ret %v
}
)");
  pmem::PmPool pool(1 << 16, pmem::LatencyModel::zero());
  Interpreter interp(*m, pool);
  EXPECT_EQ(interp.run_main(), 300u % 256);
}

TEST(InterpExtra, DivisionByZeroTraps) {
  auto m = parse_checked(R"(
define i64 @main() {
entry:
  %z = sub 1, 1
  %v = div 10, %z
  ret %v
}
)");
  pmem::PmPool pool(1 << 16, pmem::LatencyModel::zero());
  Interpreter interp(*m, pool);
  EXPECT_THROW(interp.run_main(), InterpError);
}

TEST(InterpExtra, CallDepthLimited) {
  auto m = parse_checked(R"(
define void @rec() {
entry:
  call @rec()
  ret
}
define void @main() {
entry:
  call @rec()
  ret
}
)");
  pmem::PmPool pool(1 << 16, pmem::LatencyModel::zero());
  Interpreter::Options opts;
  opts.max_call_depth = 32;
  Interpreter interp(*m, pool, nullptr, opts);
  EXPECT_THROW(interp.run_main(), InterpError);
}

TEST(InterpExtra, MemcpyBetweenVolatileAndPersistent) {
  auto m = parse_checked(R"(
struct %buf { [4 x i64] }
define i64 @main() {
entry:
  %v = alloca %buf
  %p = pm.alloc %buf
  memset %v, 5, 32
  memcpy %p, %v, 32
  pm.persist %p, 32
  %arr = gep %p, 0
  %e = gep %arr, 2
  %out = load %e
  ret %out
}
)");
  pmem::PmPool pool(1 << 16, pmem::LatencyModel::zero());
  Interpreter interp(*m, pool);
  EXPECT_EQ(interp.run_main(), 0x0505050505050505ull);
  EXPECT_TRUE(pool.tracker().dirty_lines().empty());
}

TEST(InterpExtra, MissingMainReported) {
  auto m = parse_checked(R"(
define void @not_main() {
entry:
  ret
}
)");
  pmem::PmPool pool(1 << 16, pmem::LatencyModel::zero());
  Interpreter interp(*m, pool);
  EXPECT_THROW(interp.run_main(), InterpError);
}

TEST(InterpExtra, PersistentPointerStoredAndChased) {
  // A pointer written to PM, persisted, then reloaded and dereferenced —
  // the pattern every pool-root data structure uses.
  auto m = parse_checked(R"(
struct %node { i64, i64 }
struct %root { i64 }
define i64 @main() {
entry:
  %r = pm.alloc %root
  %n = pm.alloc %node
  %val = gep %n, 0
  store i64 123, %val
  pm.persist %val, 8
  %slot = gep %r, 0
  %addr = add 0, %n
  store %addr, %slot
  pm.persist %slot, 8
  %loaded = load %slot
  %nc = cast %loaded to %node*
  %val2 = gep %nc, 0
  %out = load %val2
  ret %out
}
)");
  pmem::PmPool pool(1 << 16, pmem::LatencyModel::zero());
  Interpreter interp(*m, pool);
  EXPECT_EQ(interp.run_main(), 123u);
}

TEST(InterpExtra, StepsAccumulateAcrossRuns) {
  auto m = parse_checked(R"(
define i64 @main() {
entry:
  %x = add 1, 2
  ret %x
}
)");
  pmem::PmPool pool(1 << 16, pmem::LatencyModel::zero());
  Interpreter interp(*m, pool);
  interp.run_main();
  const uint64_t first = interp.steps_executed();
  EXPECT_GT(first, 0u);
  interp.run_main();
  EXPECT_GT(interp.steps_executed(), first);
}

// --- the volatile arena --------------------------------------------------
//
// alloca memory has a fixed limit, Options::volatile_bytes. These pin what
// a program can observe of it: bytes never written read as zero, and every
// way of running past the limit traps with the same message.

/// Runs @main with a `volatile_bytes` arena; returns the InterpError
/// message, or "ok" when the run completes.
std::string run_with_arena(const char* text, uint64_t volatile_bytes) {
  auto m = parse_checked(text);
  pmem::PmPool pool(1 << 16, pmem::LatencyModel::zero());
  Interpreter::Options opts;
  opts.volatile_bytes = volatile_bytes;
  Interpreter interp(*m, pool, nullptr, opts);
  try {
    interp.run_main();
  } catch (const InterpError& e) {
    return e.what();
  }
  return "ok";
}

TEST(InterpExtra, UntouchedAllocaBytesReadZero) {
  auto m = parse_checked(R"(
define i64 @main() {
entry:
  %a = alloca [2000 x i64]
  %b = cast %a to i8*
  store i8 7, %b
  %first = gep %a, 0
  %v0 = load %first
  %last = gep %a, 1999
  %v1 = load %last
  %s = mul %v1, 1000
  %r = add %s, %v0
  ret %r
}
)");
  pmem::PmPool pool(1 << 16, pmem::LatencyModel::zero());
  Interpreter interp(*m, pool);
  // Element 0 holds the one written byte; element 1999 was never written.
  EXPECT_EQ(interp.run_main(), 7u);
}

TEST(InterpExtra, VolatileLimitTrapsAtTheSamePlaces) {
  EXPECT_EQ(run_with_arena(R"(
define i64 @main() {
entry:
  %a = alloca [8 x i64]
  %e = gep %a, 7
  store i64 9, %e
  %v = load %e
  ret %v
}
)", 64), "ok");
  EXPECT_EQ(run_with_arena(R"(
define void @main() {
entry:
  %a = alloca [8 x i64]
  %b = alloca i64
  ret
}
)", 64), "volatile memory exhausted");
  EXPECT_EQ(run_with_arena(R"(
define void @main() {
entry:
  %a = alloca [8 x i64]
  %e = gep %a, 8
  store i64 9, %e
  ret
}
)", 64), "volatile store out of range");
  EXPECT_EQ(run_with_arena(R"(
define i64 @main() {
entry:
  %a = alloca [8 x i64]
  %e = gep %a, 8
  %v = load %e
  ret %v
}
)", 64), "volatile load out of range");
}

TEST(InterpExtra, PointerNearTheTopOfTheAddressSpaceTraps) {
  EXPECT_EQ(run_with_arena(R"(
define void @main() {
entry:
  %n = sub 0, 8
  %p = cast %n to i64*
  store i64 1, %p
  ret
}
)", 1 << 20), "volatile store out of range");
  EXPECT_EQ(run_with_arena(R"(
define i64 @main() {
entry:
  %n = sub 0, 8
  %p = cast %n to i64*
  %v = load %p
  ret %v
}
)", 1 << 20), "volatile load out of range");
  EXPECT_EQ(run_with_arena(R"(
define void @main() {
entry:
  %n = sub 0, 8
  %p = cast %n to i64*
  memset %p, 0, 16
  ret
}
)", 1 << 20), "volatile store out of range");
}

TEST(InterpExtra, MemsetAndMemcpyMayEndExactlyAtTheLimit) {
  auto m = parse_checked(R"(
define i64 @main() {
entry:
  %a = alloca [4 x i64]
  %b = alloca [4 x i64]
  memset %b, 3, 32
  memcpy %a, %b, 32
  memcpy %b, %a, 32
  %e = gep %a, 3
  %v = load %e
  ret %v
}
)");
  pmem::PmPool pool(1 << 16, pmem::LatencyModel::zero());
  Interpreter::Options opts;
  opts.volatile_bytes = 64;
  Interpreter interp(*m, pool, nullptr, opts);
  EXPECT_EQ(interp.run_main(), 0x0303030303030303ull);
}

// memset/memcpy check their ranges before building a host buffer of the
// size the program asked for, so a huge size traps as any out-of-range
// access does instead of allocating it. 2^50 bytes is above the 47-bit
// address space, so a version that allocates first fails fast too.

TEST(InterpExtra, OversizedMemsetTrapsBeforeAllocating) {
  auto m = parse_checked(R"(
struct %o { i64 }
define void @main() {
entry:
  %p = pm.alloc %o
  memset %p, 0, 1125899906842624
  ret
}
)");
  pmem::PmPool pool(4096, pmem::LatencyModel::zero());
  Interpreter interp(*m, pool);
  EXPECT_THROW(interp.run_main(), std::out_of_range);
}

TEST(InterpExtra, OversizedMemcpyTrapsBeforeAllocating) {
  auto m = parse_checked(R"(
struct %o { i64 }
define void @main() {
entry:
  %a = pm.alloc %o
  %b = pm.alloc %o
  memcpy %b, %a, 1125899906842624
  ret
}
)");
  pmem::PmPool pool(4096, pmem::LatencyModel::zero());
  Interpreter interp(*m, pool);
  EXPECT_THROW(interp.run_main(), std::out_of_range);
}

TEST(InterpExtra, MemcpyToABadDestinationTrapsBeforeReadingItsSource) {
  auto m = parse_checked(R"(
struct %o { [4 x i64] }
define void @main() {
entry:
  %a = pm.alloc %o
  %n = sub 0, 8
  %bad = cast %n to i64*
  memcpy %bad, %a, 32
  ret
}
)");
  pmem::PmPool pool(4096, pmem::LatencyModel::zero());
  Interpreter interp(*m, pool);
  const uint64_t loads = pool.stats().loads;
  EXPECT_THROW(interp.run_main(), InterpError);
  EXPECT_EQ(pool.stats().loads, loads);
}

TEST(InterpExtra, WrappingSizesTrapOnTheArena) {
  // 2^64-4 bytes from arena offset 8: offset + size wraps to 4.
  EXPECT_EQ(run_with_arena(R"(
define void @main() {
entry:
  %a = alloca i64
  %b = alloca i64
  %n = sub 0, 4
  memset %b, 0, %n
  ret
}
)", 1 << 20), "volatile store out of range");
  // The source is checked before the destination.
  EXPECT_EQ(run_with_arena(R"(
define void @main() {
entry:
  %a = alloca i64
  %b = alloca i64
  %n = sub 0, 4
  memcpy %b, %b, %n
  ret
}
)", 1 << 20), "volatile load out of range");
}

TEST(InterpExtra, ZeroSizeMemsetAndMemcpyAreNoOpsOnBadPointers) {
  auto m = parse_checked(R"(
define i64 @main() {
entry:
  %n = sub 0, 8
  %bad = cast %n to i64*
  %a = alloca i64
  memset %bad, 1, 0
  memcpy %bad, %bad, 0
  memcpy %a, %bad, 0
  %v = load %a
  ret %v
}
)");
  pmem::PmPool pool(1 << 16, pmem::LatencyModel::zero());
  const uint64_t events = pool.event_count();
  Interpreter interp(*m, pool);
  EXPECT_EQ(interp.run_main(), 0u);
  EXPECT_EQ(pool.event_count(), events);
}

}  // namespace
}  // namespace deepmc::interp
