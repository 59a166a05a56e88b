// Unit tests for the PM emulation substrate: cacheline state machine,
// pool allocation, flush/fence semantics, crash simulation, and the
// statistics used by the performance-bug experiments.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "pmem/pool.h"

namespace deepmc::pmem {
namespace {

class TrackerTest : public ::testing::Test {
 protected:
  PersistenceTracker t{LatencyModel::zero()};
};

TEST_F(TrackerTest, FreshLinesAreClean) {
  EXPECT_EQ(t.state_at(0), LineState::kClean);
  EXPECT_TRUE(t.is_persisted(0, 4096));
}

TEST_F(TrackerTest, StoreMakesLineDirty) {
  t.on_store(100, 8);
  EXPECT_EQ(t.state_at(100), LineState::kDirty);
  EXPECT_FALSE(t.is_persisted(100, 8));
  // Neighboring line untouched.
  EXPECT_EQ(t.state_at(200), LineState::kClean);
}

TEST_F(TrackerTest, StoreSpanningLinesDirtiesAll) {
  t.on_store(60, 16);  // crosses the 64B boundary
  EXPECT_EQ(t.state_at(60), LineState::kDirty);
  EXPECT_EQ(t.state_at(64), LineState::kDirty);
}

TEST_F(TrackerTest, FlushAloneIsNotPersistence) {
  t.on_store(0, 8);
  t.on_flush(0, 8);
  EXPECT_EQ(t.state_at(0), LineState::kFlushPending);
  EXPECT_FALSE(t.is_persisted(0, 8));  // needs the fence
}

TEST_F(TrackerTest, FlushThenFencePersists) {
  t.on_store(0, 8);
  t.on_flush(0, 8);
  t.on_fence();
  EXPECT_EQ(t.state_at(0), LineState::kClean);
  EXPECT_TRUE(t.is_persisted(0, 8));
}

TEST_F(TrackerTest, FenceWithoutFlushDoesNotPersistDirtyLines) {
  t.on_store(0, 8);
  t.on_fence();
  EXPECT_EQ(t.state_at(0), LineState::kDirty);
  EXPECT_FALSE(t.is_persisted(0, 8));
}

TEST_F(TrackerTest, RedundantFlushCounted) {
  t.on_store(0, 8);
  bool redundant = true;
  t.on_flush(0, 8, &redundant);
  EXPECT_FALSE(redundant);
  t.on_fence();
  t.on_flush(0, 8, &redundant);  // nothing new on that line
  EXPECT_TRUE(redundant);
  EXPECT_EQ(t.stats().redundant_flushed_lines, 1u);
  EXPECT_EQ(t.stats().media_writes, 1u);  // only the first flush hit media
}

TEST_F(TrackerTest, FlushOfNeverWrittenLineIsRedundant) {
  bool redundant = false;
  t.on_flush(128, 8, &redundant);
  EXPECT_TRUE(redundant);
  EXPECT_EQ(t.stats().redundant_flushed_lines, 1u);
}

TEST_F(TrackerTest, EmptyFenceCounted) {
  t.on_fence();
  EXPECT_EQ(t.stats().empty_fences, 1u);
  t.on_store(0, 1);
  t.on_flush(0, 1);
  t.on_fence();
  EXPECT_EQ(t.stats().empty_fences, 1u);
  EXPECT_EQ(t.stats().fences, 2u);
}

TEST_F(TrackerTest, DirtyAndPendingLineEnumeration) {
  t.on_store(0, 8);
  t.on_store(640, 8);
  t.on_flush(640, 8);
  EXPECT_EQ(t.dirty_lines(), (std::vector<uint64_t>{0}));
  EXPECT_EQ(t.pending_lines(), (std::vector<uint64_t>{10}));
}

TEST_F(TrackerTest, LatencyChargesFlushAndFence) {
  PersistenceTracker lt{LatencyModel::optane_like()};
  lt.on_store(0, 8);
  const uint64_t after_store = lt.stats().sim_ns;
  lt.on_flush(0, 8);
  const uint64_t after_flush = lt.stats().sim_ns;
  lt.on_fence();
  const uint64_t after_fence = lt.stats().sim_ns;
  EXPECT_GT(after_flush - after_store, 0u);
  EXPECT_GT(after_fence - after_flush, 0u);
  // A redundant flush is cheaper than a dirty flush but not free.
  lt.on_flush(0, 8);
  EXPECT_GT(lt.stats().sim_ns, after_fence);
}

// ---------------------------------------------------------------------------

class PoolTest : public ::testing::Test {
 protected:
  PmPool pool{1 << 20, LatencyModel::zero()};
};

TEST_F(PoolTest, AllocReturnsAlignedNonNull) {
  uint64_t a = pool.alloc(10);
  uint64_t b = pool.alloc(100);
  EXPECT_NE(a, PmPool::kNullOff);
  EXPECT_NE(b, PmPool::kNullOff);
  EXPECT_NE(a, b);
  EXPECT_EQ(a % kCachelineBytes, 0u);
  EXPECT_EQ(b % kCachelineBytes, 0u);
  EXPECT_EQ(pool.alloc_size(a), kCachelineBytes);
  EXPECT_EQ(pool.alloc_size(b), 2 * kCachelineBytes);
}

TEST_F(PoolTest, FreeAndReuse) {
  uint64_t a = pool.alloc(64);
  pool.free(a);
  uint64_t b = pool.alloc(64);
  EXPECT_EQ(a, b);  // free-list reuse
  EXPECT_EQ(pool.live_allocations(), 1u);
}

TEST_F(PoolTest, FreeOfUnknownOffsetThrows) {
  EXPECT_THROW(pool.free(12345), std::invalid_argument);
}

TEST_F(PoolTest, ExhaustionThrowsBadAlloc) {
  PmPool small(4096, LatencyModel::zero());
  EXPECT_THROW(
      {
        for (int i = 0; i < 1000; ++i) small.alloc(64);
      },
      std::bad_alloc);
}

TEST_F(PoolTest, StoreLoadRoundTrip) {
  uint64_t off = pool.alloc(sizeof(uint64_t));
  pool.store_val<uint64_t>(off, 0xfeedfacecafebeefull);
  EXPECT_EQ(pool.load_val<uint64_t>(off), 0xfeedfacecafebeefull);
}

TEST_F(PoolTest, OutOfRangeAccessThrows) {
  EXPECT_THROW(pool.store_val<uint64_t>(pool.size() - 4, 1),
               std::out_of_range);
}

TEST_F(PoolTest, RootPersistsAcrossCrash) {
  uint64_t obj = pool.alloc(64);
  pool.set_root(obj);
  pool.crash();
  EXPECT_EQ(pool.root(), obj);
}

TEST_F(PoolTest, UnflushedStoreLostOnCrash) {
  uint64_t off = pool.alloc(8);
  pool.store_val<uint64_t>(off, 42);
  pool.crash();  // dirty line dropped
  EXPECT_EQ(pool.load_val<uint64_t>(off), 0u);
}

TEST_F(PoolTest, PersistedStoreSurvivesCrash) {
  uint64_t off = pool.alloc(8);
  pool.store_val<uint64_t>(off, 42);
  pool.persist(off, 8);
  pool.crash();
  EXPECT_EQ(pool.load_val<uint64_t>(off), 42u);
}

TEST_F(PoolTest, FlushedNotFencedMayOrMayNotSurvive) {
  uint64_t off = pool.alloc(8);
  pool.store_val<uint64_t>(off, 7);
  pool.flush(off, 8);
  // pending_survives = 0: the flush had not drained.
  CrashOptions lost;
  lost.pending_survives = 0.0;
  pool.crash(lost);
  EXPECT_EQ(pool.load_val<uint64_t>(off), 0u);

  pool.store_val<uint64_t>(off, 7);
  pool.flush(off, 8);
  CrashOptions kept;
  kept.pending_survives = 1.0;
  pool.crash(kept);
  EXPECT_EQ(pool.load_val<uint64_t>(off), 7u);
}

TEST_F(PoolTest, FlushSnapshotsContentAtFlushTime) {
  // A store after the clwb must not ride along with the earlier writeback.
  uint64_t off = pool.alloc(8);
  pool.store_val<uint64_t>(off, 1);
  pool.flush(off, 8);
  pool.store_val<uint64_t>(off, 2);  // dirties the line again, post-flush
  pool.fence();                      // drains the *first* value
  CrashOptions opts;
  pool.crash(opts);
  EXPECT_EQ(pool.load_val<uint64_t>(off), 1u);
}

TEST_F(PoolTest, DirtyEvictionCanLeakUnflushedStores) {
  // The "unpredictable cache evictions" of §1: with eviction probability 1,
  // even an unflushed store reaches the media.
  uint64_t off = pool.alloc(8);
  pool.store_val<uint64_t>(off, 99);
  CrashOptions opts;
  opts.dirty_evicted = 1.0;
  Rng rng(7);
  pool.crash(opts, &rng);
  EXPECT_EQ(pool.load_val<uint64_t>(off), 99u);
}

TEST_F(PoolTest, MemsetPersistIsDurable) {
  uint64_t off = pool.alloc(256);
  pool.memset_persist(off, 0xab, 256);
  pool.crash();
  for (uint64_t i = 0; i < 256; ++i)
    EXPECT_EQ(pool.load_val<uint8_t>(off + i), 0xab) << i;
}

TEST_F(PoolTest, InstallImageRejectsWholeImageOnBadLine) {
  const uint64_t off = pool.alloc(64);
  pool.store_val<uint64_t>(off, 5);
  pool.persist(off, 8);
  const std::vector<uint8_t> junk(kCachelineBytes, 0xee);
  const uint64_t end_line = pool.size() / kCachelineBytes;
  // The good line sorts first, so a line-by-line install would write it
  // before reaching the bad one.
  EXPECT_THROW(pool.install_image({{off / kCachelineBytes, junk},
                                   {end_line, junk}}),
               std::out_of_range);
  EXPECT_THROW(pool.install_image({{off / kCachelineBytes, junk},
                                   {end_line - 1, {1, 2, 3}}}),
               std::invalid_argument);
  pool.crash();
  EXPECT_EQ(pool.load_val<uint64_t>(off), 5u);
  EXPECT_EQ(pool.load_val<uint8_t>((end_line - 1) * kCachelineBytes), 0u);
}

TEST_F(PoolTest, StatsCountPersistencyTraffic) {
  uint64_t off = pool.alloc(64);
  pool.reset_stats();
  pool.store_val<uint64_t>(off, 1);
  pool.persist(off, 8);
  pool.persist(off, 8);  // redundant: nothing dirty the second time
  const auto& st = pool.stats();
  EXPECT_EQ(st.stores, 1u);
  EXPECT_EQ(st.flush_calls, 2u);
  EXPECT_EQ(st.media_writes, 1u);
  EXPECT_EQ(st.redundant_flushed_lines, 1u);
  EXPECT_EQ(st.fences, 2u);
}

TEST_F(PoolTest, IsPersistedReflectsState) {
  uint64_t off = pool.alloc(8);
  EXPECT_TRUE(pool.is_persisted(off, 8));
  pool.store_val<uint64_t>(off, 5);
  EXPECT_FALSE(pool.is_persisted(off, 8));
  pool.flush(off, 8);
  EXPECT_FALSE(pool.is_persisted(off, 8));
  pool.fence();
  EXPECT_TRUE(pool.is_persisted(off, 8));
}

// Property-style sweep: for any (store, flush, fence) interleaving encoded
// as a bitmask program, is_persisted == (flushed && fenced after the store).
class PersistOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(PersistOrderProperty, PersistedIffFlushThenFenceAfterStore) {
  const int program = GetParam();
  PmPool pool(1 << 16, LatencyModel::zero());
  const uint64_t off = pool.alloc(8);

  // Reference model: the 3-state persistence automaton from §2.1.
  enum { kDirty, kPending, kClean } model = kDirty;
  pool.store_val<uint64_t>(off, 1);
  for (int step = 0; step < 4; ++step) {
    switch ((program >> (2 * step)) & 3) {
      case 0:
        break;  // no-op
      case 1:
        pool.store_val<uint64_t>(off, static_cast<uint64_t>(step) + 2);
        model = kDirty;
        break;
      case 2:
        pool.flush(off, 8);
        if (model == kDirty) model = kPending;  // redundant flush: no change
        break;
      case 3:
        pool.fence();
        if (model == kPending) model = kClean;
        break;
    }
  }
  EXPECT_EQ(pool.is_persisted(off, 8), model == kClean)
      << "program=" << program;
}

INSTANTIATE_TEST_SUITE_P(AllInterleavings, PersistOrderProperty,
                         ::testing::Range(0, 256));

}  // namespace
}  // namespace deepmc::pmem
