// Concurrency contracts of the runtime primitives (src/runtime/):
//
//  * EpochClockTable — the scalar happens-before collapse must agree with
//    a reference vector-clock implementation (VectorClock below, test-only)
//    on arbitrary strand/fence schedules, and stay correct under
//    concurrent begin/end from many threads;
//  * ShardedShadowSegment — per-shard locking must serialize same-word
//    access while threads on disjoint words never corrupt each other;
//  * RuntimeChecker — concurrent instrumented events must neither crash
//    nor invent races between fence-ordered strands, the per-thread
//    counters must fold to exact totals, and each thread's epochs are
//    compared only with that thread's own.
//
// The RuntimeConcurrency suite is in the TSan preset filter
// (CMakePresets.json), so those tests also run under ThreadSanitizer; the
// multi-threaded cases are written to give TSan real interleavings to chew
// on.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "core/model.h"
#include "runtime/clock_table.h"
#include "runtime/dynamic_checker.h"
#include "runtime/shadow.h"
#include "support/rng.h"

namespace deepmc::rt {
namespace {

SourceLoc loc(uint32_t line) { return SourceLoc{"rct", line}; }

// --- reference vector clocks ----------------------------------------------

/// Textbook sparse vector clock, indexed by strand id: the reference model
/// the EpochClockTable's two-scalar rule is checked against.
class VectorClock {
 public:
  [[nodiscard]] uint64_t get(StrandId s) const {
    auto it = c_.find(s);
    return it == c_.end() ? 0 : it->second;
  }

  void tick(StrandId s) { ++c_[s]; }

  /// Pointwise maximum.
  void join(const VectorClock& o) {
    for (const auto& [s, v] : o.c_) {
      auto it = c_.find(s);
      if (it == c_.end() || it->second < v) c_[s] = v;
    }
  }

  /// True if every component of *this is <= the corresponding one in `o`
  /// (i.e. *this happens-before-or-equals o).
  [[nodiscard]] bool leq(const VectorClock& o) const {
    for (const auto& [s, v] : c_)
      if (v > o.get(s)) return false;
    return true;
  }

 private:
  std::map<StrandId, uint64_t> c_;
};

TEST(VectorClockTest, DefaultIsZero) {
  VectorClock vc;
  EXPECT_EQ(vc.get(1), 0u);
  EXPECT_EQ(vc.get(99), 0u);
}

TEST(VectorClockTest, TickAndJoin) {
  VectorClock a, b;
  a.tick(1);
  a.tick(1);
  b.tick(2);
  b.join(a);
  EXPECT_EQ(b.get(1), 2u);
  EXPECT_EQ(b.get(2), 1u);
  EXPECT_EQ(a.get(2), 0u);  // join is one-directional
}

TEST(VectorClockTest, LeqIsHappensBefore) {
  VectorClock a, b;
  a.tick(1);
  b.join(a);
  b.tick(2);
  EXPECT_TRUE(a.leq(b));
  EXPECT_FALSE(b.leq(a));
  VectorClock c;
  c.tick(3);
  EXPECT_FALSE(b.leq(c));
  EXPECT_FALSE(c.leq(b));  // concurrent
}

// --- EpochClockTable vs the reference vector clocks ----------------------

TEST(RuntimeConcurrency, EpochClockTableBasics) {
  EpochClockTable table;
  uint64_t fence = 0;

  const StrandId a = table.begin(fence);
  const StrandId b = table.begin(fence);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(table.strands(), 2u);

  // Strand 0 ("no strand") and self-comparison are ordered by definition.
  EXPECT_TRUE(table.ordered_before(0, a));
  EXPECT_TRUE(table.ordered_before(a, 0));
  EXPECT_TRUE(table.ordered_before(a, a));

  // Concurrent lifetimes: no fence separates them, either direction.
  EXPECT_FALSE(table.ordered_before(a, b));
  EXPECT_FALSE(table.ordered_before(b, a));

  // a ends, a fence passes, c is born: a -> c but never c -> a, and b
  // (still live) stays concurrent with everyone.
  table.end(a, fence);
  ++fence;
  const StrandId c = table.begin(fence);
  EXPECT_TRUE(table.ordered_before(a, c));
  EXPECT_FALSE(table.ordered_before(c, a));
  EXPECT_FALSE(table.ordered_before(b, c));
  EXPECT_EQ(table.end_seq(b), EpochClockTable::kNeverEnded);

  // Ending at the birth fence is NOT enough: the barrier must strictly
  // separate end from birth (end_seq < birth_seq).
  table.end(b, fence);  // b ends at fence 1, c was born at fence 1
  EXPECT_FALSE(table.ordered_before(b, c));
}

// Replays one random strand/fence schedule through both the scalar table
// and the vector-clock algebra of the happens-before model (a strand's
// birth clock joins the barrier clock, ends join the ended clock, fences
// fold ended into barrier), then compares every pairwise ordering.
void check_schedule_against_vector_clocks(uint64_t seed) {
  EpochClockTable table;
  uint64_t fence_seq = 0;

  VectorClock barrier;  // strands ended before the last fence
  VectorClock ended;    // strands ended so far
  std::map<StrandId, VectorClock> birth_clocks;

  std::vector<StrandId> live;
  std::vector<StrandId> all;
  Rng rng(seed);

  for (int step = 0; step < 400; ++step) {
    const uint64_t roll = rng.below(10);
    if (roll < 4 || live.empty()) {  // begin
      const StrandId s = table.begin(fence_seq);
      VectorClock vc = barrier;
      vc.tick(s);
      birth_clocks[s] = std::move(vc);
      live.push_back(s);
      all.push_back(s);
    } else if (roll < 7) {  // end a random live strand
      const size_t pick = rng.below(live.size());
      const StrandId s = live[pick];
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      table.end(s, fence_seq);
      ended.join(birth_clocks[s]);
    } else {  // fence
      ++fence_seq;
      barrier.join(ended);
    }
  }

  // Vector-clock ordering: T's single tick (value 1, ids are unique) is
  // visible in S's birth clock iff T was folded into the barrier before
  // S's birth.
  for (const StrandId t : all) {
    for (const StrandId s : all) {
      if (t == s) continue;
      const bool expected = birth_clocks[s].get(t) >= 1;
      EXPECT_EQ(table.ordered_before(t, s), expected)
          << "seed " << seed << ": strands " << t << " -> " << s;
    }
  }
}

TEST(RuntimeConcurrency, EpochClockTableMatchesLegacyVectorClocks) {
  for (const uint64_t seed : {1u, 7u, 42u, 1234u, 99991u})
    check_schedule_against_vector_clocks(seed);
}

TEST(RuntimeConcurrency, EpochClockTableConcurrentBeginEnd) {
  EpochClockTable table;
  std::atomic<uint64_t> fence{0};
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &fence, t] {
      std::vector<StrandId> mine;
      mine.reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        const StrandId s = table.begin(fence.load(std::memory_order_acquire));
        mine.push_back(s);
        // Query while others are mutating: must never crash or misread.
        (void)table.ordered_before(s, mine.front());
        table.end(s, fence.load(std::memory_order_acquire));
        if (t == 0 && i % 64 == 0)
          fence.fetch_add(1, std::memory_order_acq_rel);
      }
      // Ids are globally unique; within one thread they arrive ordered by
      // allocation but need not be contiguous.
      std::set<StrandId> uniq(mine.begin(), mine.end());
      EXPECT_EQ(uniq.size(), mine.size());
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(table.strands(), uint64_t{kThreads} * kPerThread);
  // Chunk growth crossed at least one 4096-entry boundary.
  EXPECT_GT(table.strands(), 4096u);
}

// --- ShardedShadowSegment -------------------------------------------------

TEST(RuntimeConcurrency, ShardedShadowGeometry) {
  ShardedShadowSegment seg(48);  // rounds up to 64
  EXPECT_EQ(seg.shard_count(), 64u);
  EXPECT_EQ(ShardedShadowSegment(1).shard_count(), 1u);
  EXPECT_EQ(ShardedShadowSegment(0).shard_count(), 1u);

  // shard_index is a pure function of the word address.
  for (uint64_t a = 0; a < 1024; a += 8) {
    EXPECT_LT(seg.shard_index(a), seg.shard_count());
    EXPECT_EQ(seg.shard_index(a), seg.shard_index(a + 1));  // same word
  }

  // A multi-word span visits each word exactly once, in order.
  std::vector<uint64_t> seen;
  seg.for_each_word(16, 24, [&](uint64_t addr, ShardedShadowSegment::Cell&) {
    seen.push_back(addr);
  });
  EXPECT_EQ(seen, (std::vector<uint64_t>{16, 24, 32}));
  EXPECT_EQ(seg.tracked_words(), 3u);

  // The shard is picked by the word's 4 KiB page: every word of a page
  // shares one lock, tagged address spaces included.
  for (const uint64_t page : {uint64_t{0}, uint64_t{0x7000},
                              (uint64_t{3} << 44) + 0x2000}) {
    uint64_t elsewhere = 0;
    for (uint64_t a = page; a < page + 4096; a += kShadowWordBytes)
      elsewhere += seg.shard_index(a) != seg.shard_index(page);
    EXPECT_EQ(elsewhere, 0u) << "page 0x" << std::hex << page;
  }

  // The address-space tag (bit 44 and up) reaches the index, so the same
  // offset in different workers' pools does not always share a lock.
  for (uint64_t off = 0; off < (uint64_t{1} << 20); off += 4096 * 17 + 8) {
    std::set<uint32_t> shards;
    for (uint64_t tag = 1; tag <= 4; ++tag)
      shards.insert(seg.shard_index((tag << 44) + off));
    EXPECT_GT(shards.size(), 1u) << "offset 0x" << std::hex << off;
  }
}

TEST(RuntimeConcurrency, ShardedShadowDisjointWritersNeverInterfere) {
  ShardedShadowSegment seg(16);
  constexpr int kThreads = 8;
  constexpr uint64_t kWordsPerThread = 4096;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&seg, t] {
      const uint64_t base = uint64_t(t + 1) << 24;
      for (uint64_t i = 0; i < kWordsPerThread; ++i) {
        seg.for_each_word(base + i * kShadowWordBytes, kShadowWordBytes,
                          [&](uint64_t, ShardedShadowSegment::Cell& cell) {
                            cell.last_strand = StrandId(t + 1);
                            cell.written = true;
                          });
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(seg.tracked_words(), uint64_t{kThreads} * kWordsPerThread);
  // Every thread's cells kept that thread's marks.
  for (int t = 0; t < kThreads; ++t) {
    const uint64_t base = uint64_t(t + 1) << 24;
    seg.for_each_word(base, kWordsPerThread * kShadowWordBytes,
                      [&](uint64_t, ShardedShadowSegment::Cell& cell) {
                        EXPECT_EQ(cell.last_strand, StrandId(t + 1));
                        EXPECT_TRUE(cell.written);
                      });
  }
}

TEST(RuntimeConcurrency, ShardedShadowSameWordContention) {
  // All threads hammer the same few words: the per-shard mutex must make
  // the read-modify-write below atomic (TSan would flag it otherwise).
  ShardedShadowSegment seg(8);
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&seg] {
      for (int i = 0; i < kIters; ++i)
        seg.for_each_word(uint64_t(i % 4) * kShadowWordBytes,
                          kShadowWordBytes,
                          [](uint64_t, ShardedShadowSegment::Cell& cell) {
                            cell.last_strand = cell.last_strand + 1;
                          });
    });
  }
  for (std::thread& th : threads) th.join();

  uint64_t total = 0;
  seg.for_each_word(0, 4 * kShadowWordBytes,
                    [&](uint64_t, ShardedShadowSegment::Cell& cell) {
                      total += cell.last_strand;
                    });
  EXPECT_EQ(total, uint64_t{kThreads} * kIters);
}

// --- the checker under concurrent instrumented events --------------------

TEST(RuntimeConcurrency, ScalableCheckerDetectsUnfencedWawDeterministically) {
  RuntimeChecker rt(core::PersistencyModel::kStrand);

  // Two strands, same word, no fence between their lifetimes: WAW race.
  const StrandId a = rt.strand_begin();
  rt.on_write(a, 0x1000, 8, loc(1));
  rt.strand_end(a);
  const StrandId b = rt.strand_begin();
  rt.on_write(b, 0x1000, 8, loc(2));
  rt.strand_end(b);
  ASSERT_EQ(rt.races().size(), 1u);
  EXPECT_EQ(rt.races()[0].kind, RaceKind::kWaw);
  EXPECT_EQ(rt.races()[0].addr, 0x1000u);

  // Same shape with a persist barrier between them: ordered, no new race.
  rt.clear_reports();
  const StrandId c = rt.strand_begin();
  rt.on_write(c, 0x2000, 8, loc(3));
  rt.strand_end(c);
  rt.on_fence(0);
  const StrandId d = rt.strand_begin();
  rt.on_write(d, 0x2000, 8, loc(4));
  rt.strand_end(d);
  EXPECT_TRUE(rt.races().empty());
}

TEST(RuntimeConcurrency, ScalableCheckerEpochBuffersFlushAtBoundary) {
  RuntimeChecker rt(core::PersistencyModel::kStrand);
  rt.on_alloc(0x4000, 64);

  // Two consecutive epochs write disjoint words of the same object. Each
  // write must land in the epoch open when it was made; attributing both
  // to one epoch would miss the mismatch.
  rt.epoch_begin();
  rt.on_write(0, 0x4000, 8, loc(10));
  rt.epoch_end();
  rt.epoch_begin();
  rt.on_write(0, 0x4010, 8, loc(11));
  rt.epoch_end();
  ASSERT_EQ(rt.epoch_mismatches().size(), 1u);
  EXPECT_EQ(rt.epoch_mismatches()[0].object_base, 0x4000u);

  // Overlapping epochs (the second rewrites the same word) are fine.
  RuntimeChecker rt2(core::PersistencyModel::kStrand);
  rt2.on_alloc(0x4000, 64);
  rt2.epoch_begin();
  rt2.on_write(0, 0x4000, 8, loc(12));
  rt2.epoch_end();
  rt2.epoch_begin();
  rt2.on_write(0, 0x4000, 8, loc(13));
  rt2.epoch_end();
  EXPECT_TRUE(rt2.epoch_mismatches().empty());
}

TEST(RuntimeConcurrency, ScalableCheckerConcurrentFencedStrandsStayClean) {
  RuntimeChecker rt(core::PersistencyModel::kStrand);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 500;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rt, t] {
      // Thread-disjoint addresses, and every strand is closed by a fence
      // before the next one reuses its word: nothing here may race.
      // Each write sits in its own epoch; consecutive epochs write
      // different words that belong to no registered object, so no epoch
      // mismatch either.
      const uint64_t base = uint64_t(t + 1) << 32;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const StrandId s = rt.strand_begin();
        const uint64_t addr = base + uint64_t(i % 16) * 8;
        rt.epoch_begin();
        rt.on_write(s, addr, 8, loc(uint32_t(100 + t)));
        rt.epoch_end();
        rt.on_read(s, addr, 8, loc(uint32_t(200 + t)));
        rt.strand_end(s);
        rt.on_fence(0);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_TRUE(rt.races().empty());
  EXPECT_TRUE(rt.epoch_mismatches().empty());
  // Every thread's counters fold into exact totals.
  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.writes_tracked, uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(s.reads_tracked, uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(s.strands_opened, uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(s.epochs_opened, uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(s.fences, uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(rt.tracked_words(), uint64_t{kThreads} * 16);
}

TEST(RuntimeConcurrency, InterleavedEpochsReportEachThreadsMismatchOnce) {
  // Two threads, each with its own pool (address-space tag) and a 64-byte
  // object at 0x4000, each run two epochs that write different words of
  // that object: one seeded mismatch per thread. Thread 1's whole epoch
  // runs while thread 0's epoch is open, both times, so a checker that
  // shared one epoch record between threads would lose thread 0's writes.
  RuntimeChecker rt(core::PersistencyModel::kEpoch);
  constexpr int kEpochs = 2;
  std::barrier sync(2);

  std::thread t0([&] {
    AddrSpaceScope space(uint64_t{1} << 44);
    rt.on_alloc(0x4000, 64);
    for (int e = 0; e < kEpochs; ++e) {
      rt.epoch_begin();
      sync.arrive_and_wait();  // thread 0's epoch is open
      sync.arrive_and_wait();  // thread 1's epoch has run
      rt.on_write(0, 0x4000 + uint64_t(e) * 16, 8, loc(uint32_t(300 + e)));
      rt.epoch_end();
      sync.arrive_and_wait();
    }
  });
  std::thread t1([&] {
    AddrSpaceScope space(uint64_t{2} << 44);
    rt.on_alloc(0x4000, 64);
    for (int e = 0; e < kEpochs; ++e) {
      sync.arrive_and_wait();
      rt.epoch_begin();
      rt.on_write(0, 0x4000 + uint64_t(e) * 16, 8, loc(uint32_t(400 + e)));
      rt.epoch_end();
      sync.arrive_and_wait();
      sync.arrive_and_wait();
    }
  });
  t0.join();
  t1.join();

  ASSERT_EQ(rt.epoch_mismatches().size(), 2u);
  std::map<uint64_t, EpochMismatchReport> by_base;
  for (const EpochMismatchReport& r : rt.epoch_mismatches())
    by_base[r.object_base] = r;
  ASSERT_EQ(by_base.size(), 2u);
  for (const uint32_t t : {0u, 1u}) {
    const uint64_t base = (uint64_t{t + 1} << 44) + 0x4000;
    ASSERT_EQ(by_base.count(base), 1u) << "thread " << t;
    EXPECT_EQ(by_base[base].first_loc, loc(300 + 100 * t)) << "thread " << t;
    EXPECT_EQ(by_base[base].second_loc, loc(301 + 100 * t)) << "thread " << t;
  }
  EXPECT_EQ(rt.stats().epochs_opened, uint64_t{2} * kEpochs);
}

TEST(RuntimeConcurrency, LaterThreadStartsWithoutAnEarlierThreadsEpoch) {
  // Two threads, one after the other, each run one epoch on the same
  // object. The second thread has no previous epoch of its own, even if it
  // reuses the first one's std::thread::id, so nothing is compared.
  RuntimeChecker rt(core::PersistencyModel::kEpoch);
  rt.on_alloc(0x4000, 64);
  for (const uint32_t t : {0u, 1u}) {
    std::thread([&rt, t] {
      rt.epoch_begin();
      rt.on_write(0, 0x4000 + uint64_t{t} * 16, 8, loc(500 + t));
      rt.epoch_end();
    }).join();
  }
  EXPECT_TRUE(rt.epoch_mismatches().empty());
  EXPECT_EQ(rt.stats().epochs_opened, 2u);
}

TEST(RuntimeConcurrency, SampledScalableCheckerFindsSubsetOfFull) {
  // Replay one fixed racy event sequence at several sampling periods; the
  // sampled (kind, addr) sets must be subsets of the full-checking set.
  const auto replay = [](uint32_t period) {
    RtOptions opts;
    opts.sample_period = period;
    RuntimeChecker rt(core::PersistencyModel::kStrand, opts);
    for (int i = 0; i < 32; ++i) {
      const StrandId a = rt.strand_begin();
      rt.on_write(a, 0x9000 + uint64_t(i % 4) * 8, 8, loc(uint32_t(i)));
      rt.strand_end(a);
      // No fence: every same-word pair is a race candidate.
    }
    std::set<uint64_t> addrs;
    for (const RaceReport& r : rt.races()) addrs.insert(r.addr);
    return addrs;
  };

  const std::set<uint64_t> full = replay(1);
  ASSERT_FALSE(full.empty());
  for (const uint32_t period : {2u, 3u, 8u}) {
    const std::set<uint64_t> sampled = replay(period);
    for (const uint64_t addr : sampled)
      EXPECT_TRUE(full.count(addr) > 0)
          << "period " << period << " invented a race at 0x" << std::hex
          << addr;
  }
}

}  // namespace
}  // namespace deepmc::rt
