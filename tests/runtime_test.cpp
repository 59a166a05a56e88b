// Direct unit tests for the dynamic-checker runtime: shadow segment, the
// strand clock table's capacity, happens-before transitivity across
// barriers, report deduplication, the object registry, and the
// runtime-observed flush / barrier reports.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "runtime/dynamic_checker.h"

namespace deepmc::rt {
namespace {

using core::PersistencyModel;

// --- shadow segment -------------------------------------------------------------

TEST(ShadowTest, WordGranularityAndSparseness) {
  ShardedShadowSegment shadow(8);
  size_t visited = 0;
  shadow.for_each_word(0, 24, [&](uint64_t addr, ShardedShadowSegment::Cell&) {
    EXPECT_EQ(addr % kShadowWordBytes, 0u);
    ++visited;
  });
  EXPECT_EQ(visited, 3u);  // 24 bytes = 3 words
  EXPECT_EQ(shadow.tracked_words(), 3u);  // untouched words get no cell
  shadow.for_each_word(uint64_t{1} << 40, 8,
                       [](uint64_t, ShardedShadowSegment::Cell&) {});
  EXPECT_EQ(shadow.tracked_words(), 4u);  // a far word costs one cell
}

TEST(ShadowTest, UnalignedRangeCoversBothWords) {
  ShardedShadowSegment shadow(8);
  size_t visited = 0;
  shadow.for_each_word(6, 4, [&](uint64_t, ShardedShadowSegment::Cell&) {
    ++visited;
  });
  EXPECT_EQ(visited, 2u);  // bytes 6..9 straddle words 0 and 1
}

// --- strand clock table ----------------------------------------------------------

TEST(EpochClockTableTest, BeginPastCapacityThrows) {
  // Fills the whole table (16 bytes per strand, ~268 MB); a block of ids
  // takes the last 10, so that block is cut short at the capacity.
  EpochClockTable table;
  for (uint64_t i = 0; i + 10 < EpochClockTable::kCapacity; ++i)
    table.begin(0);
  EpochClockTable::IdBlock block;
  for (uint32_t i = 1; i <= 10; ++i)
    EXPECT_EQ(table.begin(0, &block),
              StrandId(EpochClockTable::kCapacity - 10 + i));
  EXPECT_EQ(table.strands(), EpochClockTable::kCapacity);
  EXPECT_THROW(table.begin(0, &block), std::length_error);
  try {
    table.begin(0);
    FAIL() << "begin() past capacity must throw";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("16777216"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(table.strands(), EpochClockTable::kCapacity);
  // Existing strands keep working.
  table.end(StrandId(EpochClockTable::kCapacity), 1);
  EXPECT_EQ(table.end_seq(StrandId(EpochClockTable::kCapacity)), 1u);
}

// --- races ------------------------------------------------------------------------

TEST(RuntimeChecker, SequentialCodeNeverRaces) {
  RuntimeChecker rt(PersistencyModel::kStrand);
  rt.on_write(0, 0x100, 8, SourceLoc("a.c", 1));
  rt.on_write(0, 0x100, 8, SourceLoc("a.c", 2));
  rt.on_read(0, 0x100, 8, SourceLoc("a.c", 3));
  EXPECT_TRUE(rt.races().empty());
}

TEST(RuntimeChecker, ThreeStrandsTransitiveOrdering) {
  RuntimeChecker rt(PersistencyModel::kStrand);
  // S1 writes, ends; barrier; S2 reads (ordered); S2 ends; barrier;
  // S3 writes (ordered after both).
  StrandId s1 = rt.strand_begin();
  rt.on_write(s1, 0x40, 8, SourceLoc("t.c", 1));
  rt.strand_end(s1);
  rt.on_fence(0);
  StrandId s2 = rt.strand_begin();
  rt.on_read(s2, 0x40, 8, SourceLoc("t.c", 2));
  rt.strand_end(s2);
  rt.on_fence(0);
  StrandId s3 = rt.strand_begin();
  rt.on_write(s3, 0x40, 8, SourceLoc("t.c", 3));
  rt.strand_end(s3);
  EXPECT_TRUE(rt.races().empty());
}

TEST(RuntimeChecker, UnorderedStrandsRace) {
  RuntimeChecker rt(PersistencyModel::kStrand);
  StrandId s1 = rt.strand_begin();
  StrandId s2 = rt.strand_begin();  // concurrent with s1 (no barrier)
  rt.on_write(s1, 0x40, 8, SourceLoc("t.c", 10));
  rt.on_write(s2, 0x40, 8, SourceLoc("t.c", 20));
  ASSERT_EQ(rt.races().size(), 1u);
  EXPECT_EQ(rt.races()[0].kind, RaceKind::kWaw);
}

TEST(RuntimeChecker, BarrierWithoutStrandEndDoesNotOrder) {
  // The barrier orders strands that ENDED before it; a still-open strand
  // remains concurrent with later ones.
  RuntimeChecker rt(PersistencyModel::kStrand);
  StrandId s1 = rt.strand_begin();
  rt.on_write(s1, 0x40, 8, SourceLoc("t.c", 1));
  rt.on_fence(0);  // s1 has not ended
  StrandId s2 = rt.strand_begin();
  rt.on_write(s2, 0x40, 8, SourceLoc("t.c", 2));
  ASSERT_EQ(rt.races().size(), 1u);
}

TEST(RuntimeChecker, RaceReportsDeduplicated) {
  // One report per (kind, word): neither a repeat by the same pair nor a
  // third unfenced strand on the same word adds one.
  RuntimeChecker rt(PersistencyModel::kStrand);
  StrandId s1 = rt.strand_begin();
  StrandId s2 = rt.strand_begin();
  rt.on_write(s1, 0x40, 8, SourceLoc("t.c", 1));
  rt.on_write(s2, 0x40, 8, SourceLoc("t.c", 2));
  rt.on_write(s2, 0x40, 8, SourceLoc("t.c", 3));  // same pair, same word
  StrandId s3 = rt.strand_begin();
  rt.on_write(s3, 0x40, 8, SourceLoc("t.c", 4));  // new pair, same word
  EXPECT_EQ(rt.races().size(), 1u);
}

TEST(RuntimeChecker, WritesBeforeFirstStrandLeaveNoShadow) {
  // Nothing can race before a strand exists, so the shadow segment only
  // starts recording at the first strand_begin.
  RuntimeChecker rt(PersistencyModel::kEpoch);
  rt.epoch_begin();
  rt.on_write(0, 0x40, 16, {});
  rt.epoch_end();
  EXPECT_EQ(rt.tracked_words(), 0u);
  StrandId s = rt.strand_begin();
  rt.on_write(s, 0x40, 16, {});
  rt.strand_end(s);
  EXPECT_EQ(rt.tracked_words(), 2u);
}

TEST(RuntimeChecker, DisjointWordsNoRace) {
  RuntimeChecker rt(PersistencyModel::kStrand);
  StrandId s1 = rt.strand_begin();
  StrandId s2 = rt.strand_begin();
  rt.on_write(s1, 0x40, 8, SourceLoc("t.c", 1));
  rt.on_write(s2, 0x48, 8, SourceLoc("t.c", 2));
  EXPECT_TRUE(rt.races().empty());
}

TEST(RuntimeChecker, OverlappingRangesRaceOnSharedWord) {
  RuntimeChecker rt(PersistencyModel::kStrand);
  StrandId s1 = rt.strand_begin();
  StrandId s2 = rt.strand_begin();
  rt.on_write(s1, 0x40, 16, SourceLoc("t.c", 1));  // words 0x40, 0x48
  rt.on_write(s2, 0x48, 16, SourceLoc("t.c", 2));  // words 0x48, 0x50
  ASSERT_EQ(rt.races().size(), 1u);
  EXPECT_EQ(rt.races()[0].addr, 0x48u);
}

// --- epoch-object tracking ------------------------------------------------------

TEST(RuntimeChecker, EpochMismatchUsesObjectRegistry) {
  RuntimeChecker rt(PersistencyModel::kEpoch);
  rt.on_alloc(0x1000, 64);
  rt.epoch_begin();
  rt.on_write(0, 0x1000, 8, SourceLoc("e.c", 1));
  rt.epoch_end();
  rt.epoch_begin();
  rt.on_write(0, 0x1020, 8, SourceLoc("e.c", 2));  // same object, diff field
  rt.epoch_end();
  ASSERT_EQ(rt.epoch_mismatches().size(), 1u);
  EXPECT_EQ(rt.epoch_mismatches()[0].object_base, 0x1000u);
}

TEST(RuntimeChecker, NonConsecutiveEpochsDoNotMismatch) {
  RuntimeChecker rt(PersistencyModel::kEpoch);
  rt.on_alloc(0x1000, 64);
  rt.on_alloc(0x2000, 64);
  rt.epoch_begin();
  rt.on_write(0, 0x1000, 8, SourceLoc("e.c", 1));
  rt.epoch_end();
  rt.epoch_begin();  // intervening epoch on a different object
  rt.on_write(0, 0x2000, 8, SourceLoc("e.c", 2));
  rt.epoch_end();
  rt.epoch_begin();
  rt.on_write(0, 0x1000, 8, SourceLoc("e.c", 3));
  rt.epoch_end();
  EXPECT_TRUE(rt.epoch_mismatches().empty());
}

TEST(RuntimeChecker, FreedObjectLeavesRegistry) {
  RuntimeChecker rt(PersistencyModel::kEpoch);
  rt.on_alloc(0x1000, 64);
  rt.on_free(0x1000);
  rt.epoch_begin();
  rt.on_write(0, 0x1000, 8, SourceLoc("e.c", 1));
  rt.epoch_end();
  rt.epoch_begin();
  rt.on_write(0, 0x1010, 8, SourceLoc("e.c", 2));
  rt.epoch_end();
  // Without a registered object, distinct addresses are distinct keys.
  EXPECT_TRUE(rt.epoch_mismatches().empty());
}

// --- runtime flush / barrier reports --------------------------------------------

TEST(RuntimeChecker, RedundantFlushReportsDedupByLocation) {
  RuntimeChecker rt(PersistencyModel::kStrict);
  rt.report_redundant_flush(SourceLoc("f.c", 10), 0x40);
  rt.report_redundant_flush(SourceLoc("f.c", 10), 0x80);  // same site, loop
  rt.report_redundant_flush(SourceLoc("f.c", 20), 0x40);
  EXPECT_EQ(rt.redundant_flushes().size(), 2u);
}

TEST(RuntimeChecker, BarrierReportsDedupByLocation) {
  RuntimeChecker rt(PersistencyModel::kStrict);
  rt.report_unfenced_tx_begin(SourceLoc("b.c", 5));
  rt.report_unfenced_tx_begin(SourceLoc("b.c", 5));
  EXPECT_EQ(rt.barrier_violations().size(), 1u);
}

TEST(RuntimeChecker, ClearReportsResetsEverything) {
  RuntimeChecker rt(PersistencyModel::kStrand);
  StrandId s1 = rt.strand_begin();
  StrandId s2 = rt.strand_begin();
  rt.on_write(s1, 0x40, 8, {});
  rt.on_write(s2, 0x40, 8, {});
  rt.report_redundant_flush(SourceLoc("f.c", 1), 0);
  rt.report_unfenced_tx_begin(SourceLoc("b.c", 1));
  rt.clear_reports();
  EXPECT_TRUE(rt.races().empty());
  EXPECT_TRUE(rt.redundant_flushes().empty());
  EXPECT_TRUE(rt.barrier_violations().empty());
}

TEST(RuntimeChecker, StatsCountTraffic) {
  RuntimeChecker rt(PersistencyModel::kEpoch);
  rt.epoch_begin();
  rt.on_write(0, 0x40, 8, {});
  rt.on_read(0, 0x40, 8, {});
  rt.on_fence(0);
  rt.epoch_end();
  auto stats = rt.stats();
  EXPECT_EQ(stats.writes_tracked, 1u);
  EXPECT_EQ(stats.reads_tracked, 1u);
  EXPECT_EQ(stats.epochs_opened, 1u);
  EXPECT_EQ(stats.fences, 1u);
}

}  // namespace
}  // namespace deepmc::rt
