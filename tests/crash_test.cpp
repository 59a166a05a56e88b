// Crash-state enumeration engine tests: event recording, store-lifecycle
// replay, reachable-image enumeration (both granularities, and the
// incremental store-range walk against a from-scratch reference),
// trace-oracle witnesses, recovery-oracle classification, the end-to-end
// warning validation matrix over the corpus (the paper's Table 8
// "validated" column, reproduced mechanically), and the counts of
// generated programs, where no recovery oracle applies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis_driver.h"
#include "corpus/clean_programs.h"
#include "corpus/corpus.h"
#include "crash/crashsim.h"
#include "crash/enumerator.h"
#include "crash/event_log.h"
#include "crash/recovery_oracle.h"
#include "crash/trace_oracle.h"
#include "frameworks/pmdk_mini.h"
#include "gen/generator.h"
#include "ir/parser.h"
#include "obs/metrics.h"
#include "pmem/pool.h"
#include "support/rng.h"
#include "support/str.h"

namespace deepmc {
namespace {

using core::AnalysisDriver;
using core::AnalysisUnit;
using core::DriverOptions;
using core::Report;
using core::Validation;

pmem::PmPool make_pool() {
  return pmem::PmPool(1 << 20, pmem::LatencyModel::zero());
}

// ---------------------------------------------------------------------------
// Event recording
// ---------------------------------------------------------------------------

TEST(EventRecorder, CapturesPoolEventsAndBaselines) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(64);
  pool.store_val<uint64_t>(a, 7);
  pool.flush(a, 8);
  pool.fence();

  const crash::EventLog& log = rec.log();
  ASSERT_EQ(log.events.size(), 3u);
  EXPECT_EQ(log.events[0].kind, crash::EventKind::kStore);
  EXPECT_EQ(log.events[0].off, a);
  EXPECT_EQ(log.events[0].size, 8u);
  EXPECT_EQ(log.events[0].alloc_base, a);
  EXPECT_EQ(log.events[1].kind, crash::EventKind::kFlush);
  EXPECT_EQ(log.events[2].kind, crash::EventKind::kFence);
  EXPECT_TRUE(log.line_bases.count(a / pmem::kCachelineBytes));
  EXPECT_EQ(log.counted_events(), 3u);
}

TEST(EventRecorder, DetachStopsRecording) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(64);
  pool.store_val<uint64_t>(a, 1);
  rec.detach();
  pool.store_val<uint64_t>(a, 2);
  EXPECT_EQ(rec.log().events.size(), 1u);
}

TEST(EventRecorder, MemsetPersistStoreIsUncounted) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(64);
  pool.memset_persist(a, 0xab, 16);
  const crash::EventLog& log = rec.log();
  // memset store (uncounted) + flush + fence from persist().
  ASSERT_EQ(log.events.size(), 3u);
  EXPECT_FALSE(log.events[0].counted);
  EXPECT_EQ(log.counted_events(), 2u);
}

TEST(EventRecorder, ZeroSizeFlushIsCounted) {
  // The log counts every event the pool counts, so crash point n and
  // inject_fault_after(n) name the same event.
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(64);
  const uint64_t before = pool.event_count();
  pool.store_val<uint64_t>(a, 1);
  pool.flush(a, 0);
  pool.flush(a, 8);
  pool.fence();
  const crash::EventLog& log = rec.log();
  EXPECT_EQ(pool.event_count() - before, 4u);
  EXPECT_EQ(log.counted_events(), 4u);
  ASSERT_EQ(log.events.size(), 4u);
  EXPECT_EQ(log.events[1].kind, crash::EventKind::kFlush);
  EXPECT_EQ(log.events[1].size, 0u);
}

// ---------------------------------------------------------------------------
// Store-lifecycle replay
// ---------------------------------------------------------------------------

TEST(StoreReplay, TracksStagingAndDurability) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(128);
  pool.store_val<uint64_t>(a, 1);       // event 0
  pool.flush(a, 8);                     // event 1
  pool.store_val<uint64_t>(a + 64, 2);  // event 2, never flushed
  pool.fence();                         // event 3

  crash::StoreReplay replay(rec.log());
  ASSERT_EQ(replay.units().size(), 2u);
  const crash::StoreUnit& fenced = replay.units()[0];
  EXPECT_EQ(fenced.staged_at, 1u);
  EXPECT_EQ(fenced.durable_at, 3u);
  const crash::StoreUnit& dirty = replay.units()[1];
  EXPECT_EQ(dirty.staged_at, crash::kNoEvent);
  EXPECT_EQ(dirty.durable_at, crash::kNoEvent);
  EXPECT_TRUE(dirty.dirty_at(4));
  ASSERT_EQ(replay.fences().size(), 1u);
  EXPECT_EQ(replay.fences()[0], 3u);
}

TEST(StoreReplay, ZeroSizeFlushStagesNothing) {
  // A zero-byte flush inside a store's range covers none of its bytes.
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(64);
  const uint8_t bytes[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14};
  pool.store(a, bytes, sizeof(bytes));  // event 0
  pool.flush(a + 8, 0);                 // event 1
  pool.fence();                         // event 2

  crash::StoreReplay replay(rec.log());
  ASSERT_EQ(rec.log().events.size(), 3u);
  ASSERT_EQ(replay.units().size(), 1u);
  EXPECT_EQ(replay.units()[0].staged_at, crash::kNoEvent);
  EXPECT_EQ(replay.units()[0].durable_at, crash::kNoEvent);
}

TEST(StoreReplay, ImageAtAppliesDurableThenExtras) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(128);
  pool.store_val<uint64_t>(a, 11);
  pool.persist(a, 8);                    // staged + fenced: durable
  pool.store_val<uint64_t>(a + 64, 22);  // dirty forever

  crash::StoreReplay replay(rec.log());
  const size_t end = rec.log().events.size();
  const crash::CrashImage base = replay.image_at(end, {});
  const uint64_t line_a = a / pmem::kCachelineBytes;
  uint64_t v = 0;
  std::memcpy(&v, base.lines.at(line_a).data() + a % pmem::kCachelineBytes, 8);
  EXPECT_EQ(v, 11u);  // durable store present in the empty-subset image
  std::memcpy(&v, base.lines.at(line_a + 1).data(), 8);
  EXPECT_EQ(v, 0u);  // dirty store absent

  const crash::CrashImage with = replay.image_at(end, {1});
  std::memcpy(&v, with.lines.at(line_a + 1).data(), 8);
  EXPECT_EQ(v, 22u);  // selected in-flight unit applied
  EXPECT_NE(with.digest, base.digest);
}

// ---------------------------------------------------------------------------
// Enumerator
// ---------------------------------------------------------------------------

TEST(Enumerator, EnumeratesAllSubsetsOfPendingLines) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(128);  // two cachelines
  pool.store_val<uint64_t>(a, 1);
  pool.store_val<uint64_t>(a + 64, 2);
  pool.flush(a, 128);
  pool.fence();

  crash::Enumerator::Options opts;
  opts.granularity = crash::Granularity::kCacheline;
  opts.include_dirty = false;
  crash::Enumerator en(rec.log(), opts);
  // At the crash point right before the fence both lines are staged:
  // 2^2 = 4 subset images at that point.
  size_t at_fence = 0;
  auto stats = en.enumerate([&](const crash::CrashImage& img) {
    if (img.point == 3) ++at_fence;
  });
  EXPECT_EQ(at_fence, 4u);
  EXPECT_GE(stats.images, 4u);
  EXPECT_GT(stats.crash_points, 0u);
}

TEST(Enumerator, DeterministicAcrossRuns) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(256);
  for (int i = 0; i < 3; ++i) {
    pool.store_val<uint64_t>(a + 64 * static_cast<uint64_t>(i), 100 + i);
    pool.flush(a + 64 * static_cast<uint64_t>(i), 8);
  }
  pool.fence();
  pool.store_val<uint64_t>(a + 192, 9);  // left dirty

  for (auto gran :
       {crash::Granularity::kStoreRange, crash::Granularity::kCacheline}) {
    crash::Enumerator::Options opts;
    opts.granularity = gran;
    crash::Enumerator en(rec.log(), opts);
    std::vector<uint64_t> first, second;
    auto s1 = en.enumerate(
        [&](const crash::CrashImage& img) { first.push_back(img.digest); });
    auto s2 = en.enumerate(
        [&](const crash::CrashImage& img) { second.push_back(img.digest); });
    EXPECT_EQ(first, second);
    EXPECT_EQ(s1.images, s2.images);
    EXPECT_EQ(s1.points_pruned, s2.points_pruned);
  }
}

TEST(Enumerator, SubsetCapFallsBackToBoundaryFamily) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(64 * 8);
  for (uint64_t i = 0; i < 6; ++i) {
    pool.store_val<uint64_t>(a + 64 * i, i);
    pool.flush(a + 64 * i, 8);
  }
  pool.fence();

  crash::Enumerator::Options opts;
  opts.granularity = crash::Granularity::kCacheline;
  opts.include_dirty = false;
  opts.max_subset_bits = 3;  // 6 pending lines exceed the cap
  crash::Enumerator en(rec.log(), opts);
  auto stats = en.enumerate([](const crash::CrashImage&) {});
  EXPECT_GT(stats.capped_points, 0u);
  // Boundary family: empty + full + 6 singletons + 6 leave-one-outs = 14,
  // far fewer than 2^6; the ratio reflects the saved work.
  EXPECT_GT(stats.pruning_ratio(), 0.5);
}

TEST(Enumerator, CommitPointPruningSkipsQuiescentPoints) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(64);
  pool.store_val<uint64_t>(a, 1);
  pool.persist(a, 8);
  // Three loads-only... simulate no-op events by flushing clean range:
  pool.flush(a, 8);  // redundant: nothing dirty, nothing staged afterwards
  pool.flush(a, 8);

  crash::Enumerator en(rec.log(), {});
  auto stats = en.enumerate([](const crash::CrashImage&) {});
  EXPECT_GT(stats.points_pruned, 0u);
  EXPECT_EQ(stats.points_enumerated + stats.points_pruned,
            stats.crash_points);
}

// ---------------------------------------------------------------------------
// Enumerator against a from-scratch reference
//
// The store-range walk carries its crash state forward from point to point.
// The reference below rebuilds every image with StoreReplay::image_at and
// compares bytes exactly (no digests), so each visited image must equal
// image_at(point, subset) for the subset that produced it, and the Stats of
// a visiting walk, a counting walk (empty visitor) and the reference must
// all agree.
// ---------------------------------------------------------------------------

/// Hand-built event logs; every line a store touches gets a base unless
/// `skip_line` names it.
class LogBuilder {
 public:
  LogBuilder& store(uint64_t off, std::vector<uint8_t> bytes,
                    bool counted = true) {
    crash::Event e{};
    e.kind = crash::EventKind::kStore;
    e.off = off;
    e.size = bytes.size();
    e.bytes = std::move(bytes);
    e.counted = counted;
    for (uint64_t b = off; b < off + e.size; ++b) touch(pmem::line_of(b));
    log_.events.push_back(std::move(e));
    return *this;
  }
  LogBuilder& flush(uint64_t off, uint64_t size) {
    return push(crash::EventKind::kFlush, off, size, true);
  }
  LogBuilder& fence() { return push(crash::EventKind::kFence, 0, 0, true); }
  LogBuilder& tx_begin() {
    return push(crash::EventKind::kRegionBegin, 0, 0, false);
  }
  LogBuilder& tx_end() {
    return push(crash::EventKind::kRegionEnd, 0, 0, false);
  }
  LogBuilder& tx_add(uint64_t off, uint64_t size) {
    return push(crash::EventKind::kTxAdd, off, size, false);
  }
  void skip_line(uint64_t line) { skipped_.insert(line); }
  [[nodiscard]] const crash::EventLog& log() const { return log_; }

 private:
  LogBuilder& push(crash::EventKind kind, uint64_t off, uint64_t size,
                   bool counted) {
    crash::Event e{};
    e.kind = kind;
    e.off = off;
    e.size = size;
    e.region_kind = crash::kRegionTx;
    e.counted = counted;
    log_.events.push_back(std::move(e));
    return *this;
  }
  void touch(uint64_t line) {
    if (skipped_.count(line) || log_.line_bases.count(line)) return;
    auto& base = log_.line_bases[line];
    // Values from the same small range as the random stores', so stores
    // that leave bytes as they were (and images that coincide) are common.
    for (size_t i = 0; i < base.size(); ++i)
      base[i] = static_cast<uint8_t>((line * 7 + i * 3) % 4);
  }

  crash::EventLog log_;
  std::set<uint64_t> skipped_;
};

struct ReferenceImage {
  size_t point;
  std::vector<size_t> subset;
};

struct ReferenceWalk {
  crash::Enumerator::Stats stats;
  std::vector<ReferenceImage> images;
};

/// The enumeration rebuilt from scratch at every point, deduplicated on
/// bytes, in the enumerator's point and subset order.
ReferenceWalk reference_walk(const crash::EventLog& log,
                             const crash::Enumerator::Options& opts) {
  const crash::StoreReplay replay(log);
  ReferenceWalk ref;
  crash::Enumerator::Stats& st = ref.stats;
  using Lines = std::map<uint64_t, std::vector<uint8_t>>;
  bool have_prev = false;
  Lines prev_base;
  std::vector<size_t> prev_inflight;
  for (size_t point = 0; point <= log.events.size(); ++point) {
    if (point != log.events.size() && !log.events[point].counted) continue;
    ++st.crash_points;
    std::vector<size_t> inflight;
    for (size_t u = 0; u < replay.units().size(); ++u) {
      const crash::StoreUnit& s = replay.units()[u];
      if (s.pending_at(point) || (opts.include_dirty && s.dirty_at(point)))
        inflight.push_back(u);
    }
    const size_t k = inflight.size();
    st.subset_space +=
        std::ldexp(1.0, static_cast<int>(std::min<size_t>(k, 1000)));
    const Lines base = replay.image_at(point, {}).lines;
    if (have_prev && base == prev_base && inflight == prev_inflight) {
      ++st.points_pruned;
      continue;
    }
    prev_base = base;
    prev_inflight = inflight;
    have_prev = true;
    ++st.points_enumerated;

    std::vector<Lines> seen;
    auto emit = [&](const std::vector<size_t>& subset) {
      st.subsets_materialized += 1;
      Lines lines = replay.image_at(point, subset).lines;
      if (std::find(seen.begin(), seen.end(), lines) != seen.end()) {
        ++st.duplicate_subsets;
        return;
      }
      seen.push_back(std::move(lines));
      ++st.images;
      ref.images.push_back({point, subset});
    };
    if (k <= opts.max_subset_bits) {
      for (uint64_t mask = 0; mask < (1ull << k); ++mask) {
        std::vector<size_t> subset;
        for (size_t b = 0; b < k; ++b)
          if (mask & (1ull << b)) subset.push_back(inflight[b]);
        emit(subset);
      }
    } else {
      ++st.capped_points;
      emit({});
      emit(inflight);
      for (size_t b = 0; b < k; ++b) {
        emit({inflight[b]});
        std::vector<size_t> loo = inflight;
        loo.erase(loo.begin() + static_cast<std::ptrdiff_t>(b));
        emit(loo);
      }
    }
  }
  return ref;
}

void expect_same_stats(const crash::Enumerator::Stats& a,
                       const crash::Enumerator::Stats& b,
                       const std::string& what) {
  EXPECT_EQ(a.crash_points, b.crash_points) << what;
  EXPECT_EQ(a.points_enumerated, b.points_enumerated) << what;
  EXPECT_EQ(a.points_pruned, b.points_pruned) << what;
  EXPECT_EQ(a.images, b.images) << what;
  EXPECT_EQ(a.duplicate_subsets, b.duplicate_subsets) << what;
  EXPECT_EQ(a.capped_points, b.capped_points) << what;
  EXPECT_EQ(a.subset_space, b.subset_space) << what;
  EXPECT_EQ(a.subsets_materialized, b.subsets_materialized) << what;
}

/// Store-range walks of `log` with and without dirty units, under the
/// given subset cap, checked against the reference. Returns the number of
/// images compared.
size_t expect_matches_reference(const crash::EventLog& log,
                                size_t max_subset_bits,
                                const std::string& what) {
  const crash::StoreReplay replay(log);
  size_t compared = 0;
  for (const bool include_dirty : {true, false}) {
    crash::Enumerator::Options opts;
    opts.include_dirty = include_dirty;
    opts.max_subset_bits = max_subset_bits;
    const std::string tag =
        what + (include_dirty ? " (dirty in flight)" : " (pending only)");
    const ReferenceWalk ref = reference_walk(log, opts);

    std::vector<crash::CrashImage> visited;
    const crash::Enumerator en(log, opts);
    const crash::Enumerator::Stats visiting = en.enumerate(
        [&](const crash::CrashImage& img) { visited.push_back(img); });
    expect_same_stats(ref.stats, visiting, tag + " visiting");
    expect_same_stats(visiting, en.enumerate({}), tag + " counting");
    expect_same_stats(visiting,
                      crash::Enumerator(replay, opts).enumerate({}),
                      tag + " over a shared replay");

    EXPECT_EQ(visited.size(), ref.images.size()) << tag;
    for (size_t i = 0; i < std::min(visited.size(), ref.images.size()); ++i) {
      const crash::CrashImage want =
          replay.image_at(ref.images[i].point, ref.images[i].subset);
      EXPECT_EQ(visited[i].point, want.point) << tag << " image " << i;
      EXPECT_EQ(visited[i].lines, want.lines) << tag << " image " << i;
      EXPECT_EQ(visited[i].digest, want.digest) << tag << " image " << i;
      ++compared;
    }
  }
  return compared;
}

std::vector<uint8_t> filled(size_t n, uint8_t v) {
  return std::vector<uint8_t>(n, v);
}

TEST(EnumeratorDifferential, TxCommitNewerStoreOverOlderStoreFencedLater) {
  // The older unlogged store A is flushed and fenced only after the tx
  // commit has made the newer logged store B durable. Where they overlap,
  // program order says B's bytes win in every image.
  LogBuilder b;
  b.store(8, filled(16, 0xa1))  // A: bytes 8..23, unlogged
      .tx_begin()
      .tx_add(12, 8)
      .store(12, filled(8, 0xb2))  // B: bytes 12..19, logged
      .tx_end()                    // commit: B durable
      .flush(0, 64)                // stages A only
      .store(40, filled(8, 0xc3))
      .fence();                    // A durable after B
  const crash::StoreReplay replay(b.log());
  ASSERT_EQ(replay.units().size(), 3u);
  ASSERT_LT(replay.units()[1].durable_at, replay.units()[0].durable_at);
  const crash::CrashImage end = replay.image_at(b.log().events.size(), {});
  EXPECT_EQ(end.lines.at(0)[12], 0xb2);
  EXPECT_EQ(end.lines.at(0)[8], 0xa1);
  EXPECT_GT(expect_matches_reference(b.log(), 10, "tx commit"), 0u);
}

TEST(EnumeratorDifferential, StoreSpanningTwoLines) {
  LogBuilder b;
  b.store(60, filled(8, 0x11))  // bytes 60..67: lines 0 and 1
      .store(64, filled(2, 0x22))
      .flush(56, 16)
      .store(120, filled(16, 0x33))  // lines 1 and 2, left dirty
      .fence()
      .flush(64, 64);
  EXPECT_GT(expect_matches_reference(b.log(), 10, "spanning store"), 0u);
}

TEST(EnumeratorDifferential, PendingAndDirtyUnitsAtTheSamePoint) {
  LogBuilder b;
  b.store(0, filled(8, 0x01))
      .flush(0, 8)                  // unit 0 pending
      .store(4, filled(8, 0x02))    // unit 1 dirty, overlaps unit 0
      .store(64, filled(8, 0x03))   // unit 2 dirty
      .flush(64, 0)                 // a counted event with both kinds
      .fence()
      .store(0, filled(8, 0x04));
  const crash::StoreReplay replay(b.log());
  const crash::StoreUnit& pending = replay.units()[0];
  const crash::StoreUnit& dirty = replay.units()[1];
  EXPECT_TRUE(pending.pending_at(4));
  EXPECT_TRUE(dirty.dirty_at(4));
  EXPECT_GT(expect_matches_reference(b.log(), 10, "pending + dirty"), 0u);
}

TEST(EnumeratorDifferential, PointAboveTheSubsetCap) {
  LogBuilder b;
  for (uint64_t i = 0; i < 6; ++i)
    b.store(8 * i, filled(12, static_cast<uint8_t>(0x40 + i)));
  b.flush(0, 32).store(100, filled(4, 0x99)).fence();
  crash::Enumerator::Options opts;
  opts.max_subset_bits = 3;
  EXPECT_GT(crash::Enumerator(b.log(), opts).enumerate({}).capped_points,
            0u);
  EXPECT_GT(expect_matches_reference(b.log(), 3, "capped"), 0u);
}

TEST(EnumeratorDifferential, PruningComparesInFlightUnits) {
  // Between two crash points the fence makes X durable without changing a
  // byte, and an uncounted store puts Y in flight: the baseline and the
  // in-flight count are unchanged, the in-flight units are not.
  LogBuilder b;
  b.store(0, filled(1, 0))  // line 0's base byte 0 is 0 as well
      .flush(0, 1)
      .fence()
      .store(8, filled(1, 3), /*counted=*/false)
      .flush(8, 0);
  // Points 0 ({}), 1 ({X}) and 4 ({Y}) are enumerated; 2 repeats 1 and
  // the end repeats 4.
  const crash::Enumerator::Stats st =
      crash::Enumerator(b.log(), crash::Enumerator::Options{}).enumerate({});
  EXPECT_EQ(st.points_enumerated, 3u);
  EXPECT_EQ(st.points_pruned, 2u);
  EXPECT_GT(expect_matches_reference(b.log(), 10, "same-sized sets"), 0u);
}

TEST(EnumeratorDifferential, StoresOutsideTheImageDomainAreDropped) {
  LogBuilder b;
  b.skip_line(1);
  b.store(56, filled(16, 0x5a)).flush(56, 16).store(64, filled(8, 0x6b))
      .fence();
  ASSERT_FALSE(b.log().line_bases.count(1));
  EXPECT_GT(expect_matches_reference(b.log(), 10, "outside domain"), 0u);
}

/// A seeded random log: stores of 1..16 bytes over two lines (often
/// spanning both), flushes of any range including empty ones, fences,
/// uncounted stores, and transactions whose stores often land inside their
/// tx.add range, so commit-durable units interleave with fenced ones.
crash::EventLog random_log(uint64_t seed) {
  Rng rng(seed);
  LogBuilder b;
  if (rng.chance(0.2)) b.skip_line(rng.below(2));
  int open = 0;
  uint64_t add_off = 0, add_size = 0;  // the open tx's last tx.add
  const size_t events = 6 + rng.below(18);
  for (size_t i = 0; i < events; ++i) {
    uint64_t off = rng.below(2 * pmem::kCachelineBytes - 16);
    switch (rng.below(8)) {
      case 0:
      case 1:
      case 2: {
        std::vector<uint8_t> bytes(1 + rng.below(16));
        if (add_size > 0 && rng.chance(0.5)) {
          bytes.resize(1 + rng.below(add_size));
          off = add_off + rng.below(add_size - bytes.size() + 1);
        }
        for (uint8_t& v : bytes) v = static_cast<uint8_t>(rng.below(4));
        b.store(off, std::move(bytes), !rng.chance(0.2));
        break;
      }
      case 3:
      case 4:
        b.flush(off, rng.below(40));
        break;
      case 5:
        b.fence();
        break;
      case 6:
        if (open > 0 && rng.chance(0.5)) {
          b.tx_end();
          --open;
          add_size = 0;
        } else {
          b.tx_begin();
          ++open;
        }
        break;
      default:
        add_off = off;
        add_size = 1 + rng.below(24);
        b.tx_add(add_off, add_size);
        break;
    }
  }
  return b.log();
}

TEST(EnumeratorDifferential, SeededRandomLogs) {
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const size_t cap = seed % 2 == 0 ? 2 : 10;
    compared += expect_matches_reference(random_log(seed), cap,
                                         "seed " + std::to_string(seed));
  }
  EXPECT_GT(compared, 1000u);
}

// ---------------------------------------------------------------------------
// Trace oracle (via simulate_root on small MIR programs)
// ---------------------------------------------------------------------------

crash::RootCrashSim simulate(const std::string& mir, const std::string& fn,
                             crash::CrashSimOptions opts = {}) {
  auto module = ir::parse_module(mir);
  const ir::Function* f = module->find_function(fn);
  EXPECT_NE(f, nullptr);
  return crash::simulate_root(*module, *f, opts);
}

bool has_witness(const crash::RootCrashSim& sim, const std::string& rule,
                 const std::string& file, uint32_t line) {
  for (const crash::Witness& w : sim.witnesses) {
    if (w.rule != rule) continue;
    for (const SourceLoc& loc : w.culprits)
      if (loc.file == file && loc.line == line) return true;
  }
  return false;
}

TEST(TraceOracle, RollbackExposureInsideLoggingTx) {
  const char* mir = R"(
module "m"
struct %obj { i64, i64 }

define void @root() {
entry:
  %o = pm.alloc %obj
  tx.begin !loc("m.c", 10)
  tx.add %o, 8
  %f0 = gep %o, 0
  store i64 1, %f0 !loc("m.c", 11)
  %f1 = gep %o, 1
  store i64 2, %f1 !loc("m.c", 12)
  pm.fence
  tx.end
  ret
}
)";
  crash::RootCrashSim sim = simulate(mir, "root");
  ASSERT_TRUE(sim.executed) << sim.error;
  // f1 is written without tx.add coverage; f0 is logged.
  EXPECT_TRUE(has_witness(sim, "crash.rollback-exposure", "m.c", 12));
  EXPECT_FALSE(has_witness(sim, "crash.rollback-exposure", "m.c", 11));
}

TEST(TraceOracle, UnfencedAtEndOfRun) {
  const char* mir = R"(
module "m"
struct %obj { i64 }

define void @root() {
entry:
  %o = pm.alloc %obj
  %f = gep %o, 0
  store i64 3, %f !loc("m.c", 20)
  pm.flush %f, 8 !loc("m.c", 21)
  ret
}
)";
  crash::RootCrashSim sim = simulate(mir, "root");
  ASSERT_TRUE(sim.executed) << sim.error;
  EXPECT_TRUE(has_witness(sim, "crash.unfenced-boundary", "m.c", 20));
}

TEST(TraceOracle, ProperlyPersistedStoreProducesNoWitness) {
  const char* mir = R"(
module "m"
struct %obj { i64 }

define void @root() {
entry:
  %o = pm.alloc %obj
  %f = gep %o, 0
  store i64 3, %f !loc("m.c", 30)
  pm.persist %f, 8 !loc("m.c", 31)
  ret
}
)";
  crash::RootCrashSim sim = simulate(mir, "root");
  ASSERT_TRUE(sim.executed) << sim.error;
  EXPECT_TRUE(sim.witnesses.empty());
}

TEST(TraceOracle, BareStoreWithNoDurabilityIntentAbstains) {
  const char* mir = R"(
module "m"
struct %obj { i64 }

define void @root() {
entry:
  %o = pm.alloc %obj
  %f = gep %o, 0
  store i64 3, %f !loc("m.c", 40)
  ret
}
)";
  crash::RootCrashSim sim = simulate(mir, "root");
  ASSERT_TRUE(sim.executed) << sim.error;
  // No flush, no region, no later durable store: no contract to violate.
  EXPECT_TRUE(sim.witnesses.empty());
}

TEST(CrashsimRoot, OversizedMemsetReportsThePoolError) {
  // The range is checked before a buffer of the requested size is built,
  // so the root fails with the pool's error, not an allocation failure.
  const char* mir = R"(
module "m"
struct %obj { i64 }

define void @root() {
entry:
  %o = pm.alloc %obj
  memset %o, 0, 1125899906842624 !loc("m.c", 50)
  ret
}
)";
  crash::RootCrashSim sim = simulate(mir, "root");
  EXPECT_FALSE(sim.executed);
  EXPECT_EQ(sim.error, "PmPool: access beyond pool end");
}

// ---------------------------------------------------------------------------
// Recovery oracles
// ---------------------------------------------------------------------------

TEST(RecoveryOracle, PmdkLoggedProtocolIsConsistentOnEveryImage) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  pmdk::ObjPool obj(pool);
  // Seed the undo log inside the recorded window so every image carries
  // the log's pool-header slot.
  const uint64_t a = obj.alloc(128);
  {
    pmdk::Tx tx(obj);
    tx.add(a, 128);
    tx.write_val<uint64_t>(a, 41);
    tx.write_val<uint64_t>(a + 64, 42);
    tx.commit();
  }
  rec.detach();

  crash::Enumerator::Options eopts;
  eopts.granularity = crash::Granularity::kCacheline;
  eopts.include_dirty = false;
  crash::Enumerator en(rec.log(), eopts);
  auto oracle = crash::make_pmdk_oracle();
  // Invariant: the two fields commit atomically — both old or both new.
  crash::Invariant both_or_neither = [a](pmem::PmPool& pm) {
    const uint64_t v0 = pm.load_val<uint64_t>(a);
    const uint64_t v1 = pm.load_val<uint64_t>(a + 64);
    return (v0 == 0 && v1 == 0) || (v0 == 41 && v1 == 42);
  };
  size_t images = 0, inconsistent = 0;
  en.enumerate([&](const crash::CrashImage& img) {
    ++images;
    pmem::PmPool replay = make_pool();
    if (oracle->classify(replay, img, both_or_neither) ==
        crash::RecoveryOutcome::kInconsistent)
      ++inconsistent;
  });
  EXPECT_GT(images, 4u);
  EXPECT_EQ(inconsistent, 0u) << "undo logging must make every reachable "
                                 "crash image recoverable";
}

TEST(RecoveryOracle, UnloggedTwoFieldUpdateHasInconsistentImages) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  pmdk::ObjPool obj(pool);
  const uint64_t a = obj.alloc(128);
  {
    // Seed the undo log so replayed recovery finds (and ignores) it.
    pmdk::Tx tx(obj);
    tx.add(a, 8);
    tx.write_val<uint64_t>(a, 0);
    tx.commit();
  }
  // The Figure 2 pattern: two fields updated with no logging, one fence.
  pool.store_val<uint64_t>(a, 41);
  pool.store_val<uint64_t>(a + 64, 42);
  pool.flush(a, 128);
  pool.fence();
  rec.detach();

  crash::Enumerator::Options eopts;
  eopts.granularity = crash::Granularity::kCacheline;
  eopts.include_dirty = false;
  crash::Enumerator en(rec.log(), eopts);
  auto oracle = crash::make_pmdk_oracle();
  crash::Invariant both_or_neither = [a](pmem::PmPool& pm) {
    const uint64_t v0 = pm.load_val<uint64_t>(a);
    const uint64_t v1 = pm.load_val<uint64_t>(a + 64);
    return (v0 == 0 && v1 == 0) || (v0 == 41 && v1 == 42);
  };
  size_t inconsistent = 0;
  en.enumerate([&](const crash::CrashImage& img) {
    pmem::PmPool replay = make_pool();
    if (oracle->classify(replay, img, both_or_neither) ==
        crash::RecoveryOutcome::kInconsistent)
      ++inconsistent;
  });
  EXPECT_GT(inconsistent, 0u)
      << "a torn unlogged update must be reachable and unrecoverable";
}

TEST(RecoveryOracle, MakeOracleKnowsAllFrameworks) {
  for (const char* fw :
       {"pmdk_mini", "pmfs_mini", "mnemosyne_mini", "nvmdirect_mini"}) {
    auto oracle = crash::make_oracle(fw);
    ASSERT_NE(oracle, nullptr) << fw;
    EXPECT_EQ(oracle->name(), fw);
  }
  EXPECT_EQ(crash::make_oracle("unknown"), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end validation matrix over the corpus
// ---------------------------------------------------------------------------

Report run_crashsim_sweep(size_t jobs) {
  DriverOptions opts;
  opts.crashsim = true;
  opts.jobs = jobs;
  std::vector<AnalysisUnit> units;
  for (const std::string& name : corpus::module_names())
    units.push_back(core::make_corpus_unit(name));
  AnalysisDriver driver(opts);
  return driver.run(units);
}

TEST(CrashsimValidation, CorpusMatrixMatchesThePaper) {
  const Report report = run_crashsim_sweep(0);

  // The paper's validated true positives: every one must be confirmed by
  // at least one enumerated crash image.
  const std::set<std::pair<std::string, uint32_t>> expect_confirmed = {
      {"btree_map.c", 201},  {"rbtree_map.c", 379}, {"hash_map.c", 120},
      {"hash_map.c", 264},   {"obj_pmemlog.c", 91}, {"nvm_region.c", 614},
      {"nvm_region.c", 933}, {"nvm_locks.c", 932},  {"phlog_base.c", 132},
      {"symlink.c", 38},     {"super.c", 584},
  };
  // Known false positives: the warned line executes, but no reachable
  // crash image misbehaves (paper §6.2's "not validated" rows).
  const std::set<std::pair<std::string, uint32_t>> expect_not_reproduced = {
      {"btree_map.c", 290},
      {"hash_map.c", 310},
      {"bbuild.c", 210},
  };

  std::set<std::pair<std::string, uint32_t>> confirmed, not_reproduced;
  for (const core::UnitReport& u : report.units()) {
    ASSERT_FALSE(u.failed) << u.name << ": " << u.error;
    ASSERT_TRUE(u.crashsim.ran);
    const auto& ws = u.result.warnings();
    ASSERT_EQ(u.crashsim.validations.size(), ws.size()) << u.name;
    for (size_t i = 0; i < ws.size(); ++i) {
      const auto key = std::make_pair(ws[i].loc.file, ws[i].loc.line);
      switch (u.crashsim.validations[i]) {
        case Validation::kConfirmed:
          confirmed.insert(key);
          // Only model-violation warnings can be confirmed.
          EXPECT_EQ(ws[i].bug_class(), core::BugClass::kModelViolation);
          break;
        case Validation::kNotReproduced:
          not_reproduced.insert(key);
          break;
        case Validation::kSkipped:
          // A validated true positive must never end up skipped (perf
          // warnings may share a source line with one, hence the guard).
          if (ws[i].bug_class() == core::BugClass::kModelViolation) {
            EXPECT_FALSE(expect_confirmed.count(key))
                << u.name << " " << ws[i].rule;
          }
          break;
      }
    }
  }
  EXPECT_EQ(confirmed, expect_confirmed);
  EXPECT_EQ(not_reproduced, expect_not_reproduced);
}

TEST(CrashsimValidation, FixedModulesConfirmNothing) {
  DriverOptions opts;
  opts.crashsim = true;
  std::vector<AnalysisUnit> units;
  for (const std::string& name : corpus::fixed_module_names()) {
    AnalysisUnit u;
    u.name = name;
    u.build = [name] {
      corpus::CorpusModule cm = corpus::build_module(name);
      core::BuiltUnit b;
      b.module = corpus::build_fixed_module(name);
      b.model = corpus::framework_model(cm.framework);
      return b;
    };
    units.push_back(std::move(u));
  }
  AnalysisDriver driver(opts);
  const Report report = driver.run(units);
  for (const core::UnitReport& u : report.units()) {
    ASSERT_FALSE(u.failed) << u.name << ": " << u.error;
    EXPECT_EQ(u.crashsim.confirmed, 0u)
        << u.name << ": fixed code must not be confirmable";
  }
}

TEST(CrashsimValidation, CleanProgramsConfirmNothing) {
  DriverOptions opts;
  opts.crashsim = true;
  std::vector<AnalysisUnit> units;
  for (const std::string& name : corpus::clean_program_names()) {
    AnalysisUnit u;
    u.name = name;
    u.build = [name] {
      corpus::CleanProgram p = corpus::build_clean_program(name);
      core::BuiltUnit b;
      b.module = std::move(p.module);
      b.model = p.model;
      return b;
    };
    units.push_back(std::move(u));
  }
  AnalysisDriver driver(opts);
  const Report report = driver.run(units);
  for (const core::UnitReport& u : report.units()) {
    ASSERT_FALSE(u.failed) << u.name << ": " << u.error;
    EXPECT_EQ(u.result.count(), 0u) << u.name;
    EXPECT_EQ(u.crashsim.confirmed, 0u) << u.name;
  }
}

TEST(CrashsimValidation, OutputIsIdenticalAcrossJobCounts) {
  const Report serial = run_crashsim_sweep(1);
  const Report parallel = run_crashsim_sweep(8);
  EXPECT_EQ(serial.text(), parallel.text());
  EXPECT_EQ(serial.json(/*include_timing=*/false),
            parallel.json(/*include_timing=*/false));
}

TEST(CrashsimValidation, JsonCarriesValidationAndCrashsimObject) {
  DriverOptions opts;
  opts.crashsim = true;
  AnalysisDriver driver(opts);
  const Report report = driver.run({core::make_corpus_unit("pmdk/btree_map")});
  const std::string json = report.json(/*include_timing=*/false);
  EXPECT_NE(json.find("\"schema\": \"deepmc-report-v3\""), std::string::npos);
  EXPECT_NE(json.find("\"validation\": \"confirmed\""), std::string::npos);
  EXPECT_NE(json.find("\"crashsim\": {"), std::string::npos);
  EXPECT_NE(json.find("\"framework\": \"pmdk_mini\""), std::string::npos);
  EXPECT_NE(json.find("\"pruning_ratio\""), std::string::npos);
}

TEST(CrashsimValidation, OffByDefaultKeepsV1ShapedPayload) {
  AnalysisDriver driver(DriverOptions{});
  const Report report = driver.run({core::make_corpus_unit("pmdk/btree_map")});
  const std::string json = report.json(false);
  EXPECT_EQ(json.find("\"crashsim\""), std::string::npos);
  EXPECT_EQ(json.find("\"validation\""), std::string::npos);
  EXPECT_EQ(report.units()[0].crashsim.ran, false);
}

// ---------------------------------------------------------------------------
// Generated programs: no recovery oracle applies, so every image is only
// counted. tests/golden/crashsim_generated.golden pins each root's counts
// and the stable crash.* metrics; regenerate after an intentional change
// with
//   UPDATE_GOLDEN=1 ctest --test-dir build -R CrashsimGolden
// and review the diff.
// ---------------------------------------------------------------------------

/// Root summaries of every unit, then the stable crash.* counters and the
/// in-flight-units histogram, for one driver run over `programs`.
std::string generated_crashsim_digest(
    const std::vector<gen::GeneratedProgram>& programs, size_t jobs) {
  std::vector<AnalysisUnit> units;
  for (const gen::GeneratedProgram& p : programs)
    units.push_back(core::make_source_unit(p.name, p.text, p.model));
  DriverOptions opts;
  opts.crashsim = true;
  opts.jobs = jobs;
  obs::set_enabled(true);
  obs::registry().reset();
  const Report report = AnalysisDriver(opts).run(units);
  const obs::Snapshot snap = obs::registry().snapshot();
  obs::set_enabled(false);

  std::ostringstream out;
  for (const core::UnitReport& u : report.units()) {
    out << "== " << u.name << " status " << core::unit_status_name(u.status)
        << " framework '" << u.crashsim.framework << "'\n";
    for (const core::CrashSimRootSummary& r : u.crashsim.roots)
      out << strformat(
          "  @%s executed %d points %llu images %llu skipped %llu "
          "witnesses %llu pruning %.9g\n",
          r.root.c_str(), r.executed ? 1 : 0,
          static_cast<unsigned long long>(r.crash_points),
          static_cast<unsigned long long>(r.images),
          static_cast<unsigned long long>(r.images_skipped),
          static_cast<unsigned long long>(r.witnesses), r.pruning_ratio);
  }
  // A fixed list: other tests in the same process may register more
  // crash.* counters (the recovery oracle's), which this run leaves at 0.
  const char* const kCounters[] = {
      "crash.roots_total",
      "crash.roots_failed_total",
      "crash.enumerations_total",
      "crash.crash_points_total",
      "crash.points_pruned_total",
      "crash.images_total",
      "crash.duplicate_subsets_total",
      "crash.capped_points_total",
      "crash.witnesses_total",
      "crash.images_consistent_total",
      "crash.images_inconsistent_total",
      "crash.images_skipped_total",
      "crash.validations_confirmed_total",
      "crash.validations_not_reproduced_total",
      "crash.validations_skipped_total",
  };
  out << "== stable crash metrics\n";
  for (const char* name : kCounters) {
    uint64_t value = 0;
    for (const auto& c : snap.counters)
      if (c.name == name && c.vol == obs::Volatility::kStable) value = c.value;
    out << "  " << name << " " << value << "\n";
  }
  for (const auto& h : snap.histograms) {
    if (h.name != "crash.pending_units_per_point") continue;
    out << "  " << h.name << " counts";
    for (uint64_t n : h.value.counts) out << " " << n;
    out << " overflow " << h.value.overflow << " sum " << h.value.sum
        << " count " << h.value.count << "\n";
  }
  return out.str();
}

TEST(CrashsimGolden, GeneratedProgramsMatchGolden) {
  std::vector<gen::GeneratedProgram> programs;
  for (uint64_t seed = 0; seed < 120; ++seed) {
    gen::GenOptions gopts;
    gopts.seed = seed;
    programs.push_back(gen::generate_program(gopts));
  }
  const std::string serial = generated_crashsim_digest(programs, 1);
  EXPECT_EQ(serial, generated_crashsim_digest(programs, 4))
      << "generated crashsim counts differ between --jobs 1 and 4";

  const std::string golden = std::string(DEEPMC_SOURCE_DIR) +
                             "/tests/golden/crashsim_generated.golden";
  const char* env = std::getenv("UPDATE_GOLDEN");
  if (env && *env && std::string(env) != "0") {
    std::ofstream f(golden, std::ios::binary);
    ASSERT_TRUE(f.good()) << "cannot write " << golden;
    f << serial;
    return;
  }
  ASSERT_TRUE(std::filesystem::exists(golden)) << "missing " << golden;
  std::ifstream f(golden, std::ios::binary);
  std::ostringstream want;
  want << f.rdbuf();
  EXPECT_EQ(want.str(), serial)
      << "generated crashsim counts diverged from " << golden
      << "\nIf the change is intentional, regenerate with UPDATE_GOLDEN=1.";
}

}  // namespace
}  // namespace deepmc
