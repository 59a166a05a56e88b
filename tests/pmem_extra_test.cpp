// Additional PM-substrate coverage: fault-injection mechanics, allocator
// behaviour across size classes, crash-option probabilities,
// cacheline-spanning operations, and the sparse paged pool checked against
// a flat two-vector reference pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "crash/event_log.h"
#include "pmem/pool.h"

namespace deepmc::pmem {
namespace {

TEST(FaultInjection, TriggersOnExactlyTheNthEvent) {
  PmPool pool(1 << 16, LatencyModel::zero());
  const uint64_t off = pool.alloc(8);
  pool.inject_fault_after(3);
  EXPECT_TRUE(pool.fault_armed());
  pool.store_val<uint64_t>(off, 1);  // event 1
  pool.flush(off, 8);                // event 2
  EXPECT_THROW(pool.fence(), PmFault);  // event 3
  EXPECT_FALSE(pool.fault_armed());  // disarms after firing
  pool.fence();                      // subsequent events run normally
}

TEST(FaultInjection, FaultFiresBeforeTheEventTakesEffect) {
  PmPool pool(1 << 16, LatencyModel::zero());
  const uint64_t off = pool.alloc(8);
  pool.store_val<uint64_t>(off, 7);
  pool.persist(off, 8);
  pool.inject_fault_after(1);
  EXPECT_THROW(pool.store_val<uint64_t>(off, 9), PmFault);
  EXPECT_EQ(pool.load_val<uint64_t>(off), 7u);  // store did not land
}

TEST(FaultInjection, ZeroDisarms) {
  PmPool pool(1 << 16, LatencyModel::zero());
  const uint64_t off = pool.alloc(8);
  pool.inject_fault_after(1);
  pool.inject_fault_after(0);
  EXPECT_NO_THROW(pool.store_val<uint64_t>(off, 1));
}

TEST(FaultInjection, EventCountAdvances) {
  PmPool pool(1 << 16, LatencyModel::zero());
  const uint64_t off = pool.alloc(8);
  const uint64_t before = pool.event_count();
  pool.store_val<uint64_t>(off, 1);
  pool.flush(off, 8);
  pool.fence();
  EXPECT_EQ(pool.event_count(), before + 3);
}

TEST(AllocatorExtra, DistinctSizeClassesDoNotMix) {
  PmPool pool(1 << 18, LatencyModel::zero());
  const uint64_t small = pool.alloc(64);
  const uint64_t big = pool.alloc(256);
  pool.free(small);
  // A 256-byte request must not reuse the 64-byte chunk.
  const uint64_t big2 = pool.alloc(256);
  EXPECT_NE(big2, small);
  EXPECT_NE(big2, big);
  // A 64-byte request does reuse it.
  EXPECT_EQ(pool.alloc(64), small);
}

TEST(AllocatorExtra, AllocBaseFindsEnclosingAllocation) {
  PmPool pool(1 << 16, LatencyModel::zero());
  const uint64_t a = pool.alloc(128);
  EXPECT_EQ(pool.alloc_base(a), a);
  EXPECT_EQ(pool.alloc_base(a + 100), a);
  EXPECT_EQ(pool.alloc_base(a + 128), PmPool::kNullOff);  // one past end
  pool.free(a);
  EXPECT_EQ(pool.alloc_base(a), PmPool::kNullOff);
}

TEST(CrashOptionsExtra, PendingSurvivalIsProbabilistic) {
  // With p=0.5, across many lines roughly half survive.
  PmPool pool(1 << 20, LatencyModel::zero());
  std::vector<uint64_t> offs;
  for (int i = 0; i < 200; ++i) {
    const uint64_t off = pool.alloc(64);
    pool.store_val<uint64_t>(off, 1);
    pool.flush(off, 8);
    offs.push_back(off);
  }
  CrashOptions half;
  half.pending_survives = 0.5;
  Rng rng(99);
  pool.crash(half, &rng);
  int survived = 0;
  for (uint64_t off : offs)
    if (pool.load_val<uint64_t>(off) == 1) ++survived;
  EXPECT_GT(survived, 60);
  EXPECT_LT(survived, 140);
}

TEST(CacheLineSpanning, MemsetPersistAcrossManyLines) {
  PmPool pool(1 << 16, LatencyModel::zero());
  const uint64_t off = pool.alloc(400);
  pool.memset_persist(off, 0x5a, 400);
  EXPECT_TRUE(pool.is_persisted(off, 400));
  pmem::CrashOptions worst;
  worst.pending_survives = 0.0;
  pool.crash(worst);
  for (uint64_t i = 0; i < 400; i += 37)
    EXPECT_EQ(pool.load_val<uint8_t>(off + i), 0x5a) << i;
}

TEST(CacheLineSpanning, PartialLineFlushCoversWholeLine) {
  // Hardware flushes whole cachelines: flushing one byte persists its
  // 64-byte line (after the fence).
  PmPool pool(1 << 16, LatencyModel::zero());
  const uint64_t off = pool.alloc(64);
  pool.store_val<uint64_t>(off, 1);
  pool.store_val<uint64_t>(off + 32, 2);  // same line
  pool.flush(off, 1);
  pool.fence();
  pmem::CrashOptions worst;
  worst.pending_survives = 0.0;
  pool.crash(worst);
  EXPECT_EQ(pool.load_val<uint64_t>(off), 1u);
  EXPECT_EQ(pool.load_val<uint64_t>(off + 32), 2u);  // rode along
}

TEST(HeaderSurvival, MagicAndRootPersistedAtConstruction) {
  PmPool pool(1 << 16, LatencyModel::zero());
  const uint64_t obj = pool.alloc(64);
  pool.set_root(obj);
  pmem::CrashOptions worst;
  worst.pending_survives = 0.0;
  pool.crash(worst);
  EXPECT_EQ(pool.root(), obj);
}

TEST(StatsExtra, SimTimeMonotonicUnderRealModel) {
  PmPool pool(1 << 16);  // optane-like
  const uint64_t off = pool.alloc(64);
  uint64_t last = pool.stats().sim_ns;
  for (int i = 0; i < 10; ++i) {
    pool.store_val<uint64_t>(off, static_cast<uint64_t>(i));
    pool.persist(off, 8);
    EXPECT_GT(pool.stats().sim_ns, last);
    last = pool.stats().sim_ns;
  }
}

// ---------------------------------------------------------------------------
// Paged pool vs. flat reference
// ---------------------------------------------------------------------------

/// The pool's data path as it was before pages: two flat, fully zeroed
/// vectors for the cache-visible and the persisted image. Test-only: the
/// reference the sparse PmPool is checked against, observable for
/// observable. It keeps no allocator and no fault injection, which the
/// representation does not touch, and reports a zero-byte flush to the
/// sink as PmPool does.
class FlatPool {
 public:
  explicit FlatPool(uint64_t size_bytes)
      : data_((std::max<uint64_t>(size_bytes, 2 * PmPool::kHeaderBytes) +
               kCachelineBytes - 1) /
                  kCachelineBytes * kCachelineBytes,
              0),
        persisted_(data_.size(), 0) {
    store_val<uint64_t>(0, 0xdeedc0dedeedc0deull);
    store_val<uint64_t>(8, PmPool::kNullOff);
    flush(0, PmPool::kHeaderBytes);
    fence();
    tracker_.mutable_stats().reset();
  }

  [[nodiscard]] uint64_t size() const { return data_.size(); }

  template <typename T>
  void store_val(uint64_t off, const T& v) {
    store(off, &v, sizeof(T));
  }

  void store(uint64_t off, const void* src, uint64_t size) {
    check_range(off, size);
    std::memcpy(data_.data() + off, src, size);
    tracker_.on_store(off, size);
    if (sink_) {
      announce_lines(off, size);
      sink_->on_store(off, src, size, /*counted=*/true);
    }
  }

  void load(uint64_t off, void* dst, uint64_t size) {
    check_range(off, size);
    std::memcpy(dst, data_.data() + off, size);
    tracker_.on_load(off, size);
  }

  bool flush(uint64_t off, uint64_t size) {
    if (size == 0) {
      tracker_.on_flush(off, 0);
      if (sink_) sink_->on_flush(off, 0);
      return true;
    }
    check_range(off, size);
    const uint64_t first = line_of(off), last = line_of(off + size - 1);
    for (uint64_t l = first; l <= last; ++l)
      if (tracker_.state_at(l * kCachelineBytes) == LineState::kDirty)
        staged_[l].assign(data_.begin() + static_cast<long>(l * kCachelineBytes),
                          data_.begin() +
                              static_cast<long>((l + 1) * kCachelineBytes));
    bool redundant = false;
    tracker_.on_flush(off, size, &redundant);
    if (sink_) {
      announce_lines(off, size);
      sink_->on_flush(off, size);
    }
    return redundant;
  }

  void fence() {
    for (auto& [line, bytes] : staged_)
      std::memcpy(persisted_.data() + line * kCachelineBytes, bytes.data(),
                  kCachelineBytes);
    staged_.clear();
    tracker_.on_fence();
    if (sink_) sink_->on_fence();
  }

  void memset_persist(uint64_t off, uint8_t byte, uint64_t size) {
    check_range(off, size);
    std::memset(data_.data() + off, byte, size);
    tracker_.on_store(off, size);
    if (sink_) {
      announce_lines(off, size);
      sink_->on_store(off, data_.data() + off, size, /*counted=*/false);
    }
    flush(off, size);
    fence();
  }

  void crash(const CrashOptions& opts, Rng& r) {
    for (auto& [line, bytes] : staged_)
      if (r.chance(opts.pending_survives))
        std::memcpy(persisted_.data() + line * kCachelineBytes, bytes.data(),
                    kCachelineBytes);
    if (opts.dirty_evicted > 0.0) {
      for (uint64_t l : tracker_.dirty_lines())
        if (r.chance(opts.dirty_evicted))
          std::memcpy(persisted_.data() + l * kCachelineBytes,
                      data_.data() + l * kCachelineBytes, kCachelineBytes);
    }
    restart();
  }

  void install_image(const std::map<uint64_t, std::vector<uint8_t>>& lines) {
    for (const auto& [line, bytes] : lines)
      std::memcpy(persisted_.data() + line * kCachelineBytes, bytes.data(),
                  kCachelineBytes);
    restart();
  }

  void set_event_sink(PmEventSink* sink) {
    sink_ = sink;
    sink_seen_lines_.clear();
  }

  [[nodiscard]] bool is_persisted(uint64_t off, uint64_t size) const {
    return tracker_.is_persisted(off, size);
  }
  [[nodiscard]] const PersistenceStats& stats() const {
    return tracker_.stats();
  }

 private:
  void check_range(uint64_t off, uint64_t size) const {
    if (off + size > data_.size() || off + size < off)
      throw std::out_of_range("FlatPool: access beyond pool end");
  }

  void announce_lines(uint64_t off, uint64_t size) {
    if (size == 0) return;
    const uint64_t first = line_of(off), last = line_of(off + size - 1);
    for (uint64_t l = first; l <= last; ++l)
      if (sink_seen_lines_.insert(l).second)
        sink_->on_line_base(l, persisted_.data() + l * kCachelineBytes);
  }

  void restart() {
    staged_.clear();
    data_ = persisted_;
    PersistenceStats saved = tracker_.stats();
    tracker_.reset();
    tracker_.mutable_stats() = saved;
  }

  std::vector<uint8_t> data_;
  std::vector<uint8_t> persisted_;
  std::map<uint64_t, std::vector<uint8_t>> staged_;
  PersistenceTracker tracker_;
  PmEventSink* sink_ = nullptr;
  std::set<uint64_t> sink_seen_lines_;
};

constexpr uint64_t kPage = 4096;

void expect_same_stats(const PersistenceStats& a, const PersistenceStats& b) {
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.bytes_stored, b.bytes_stored);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.flush_calls, b.flush_calls);
  EXPECT_EQ(a.flushed_lines, b.flushed_lines);
  EXPECT_EQ(a.redundant_flushed_lines, b.redundant_flushed_lines);
  EXPECT_EQ(a.fences, b.fences);
  EXPECT_EQ(a.empty_fences, b.empty_fences);
  EXPECT_EQ(a.media_writes, b.media_writes);
  EXPECT_EQ(a.sim_ns, b.sim_ns);
}

void expect_same_log(const crash::EventLog& a, const crash::EventLog& b) {
  EXPECT_TRUE(a.line_bases == b.line_bases);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    const crash::Event& x = a.events[i];
    const crash::Event& y = b.events[i];
    EXPECT_EQ(x.kind, y.kind) << "event " << i;
    EXPECT_EQ(x.off, y.off) << "event " << i;
    EXPECT_EQ(x.size, y.size) << "event " << i;
    EXPECT_EQ(x.bytes, y.bytes) << "event " << i;
    EXPECT_EQ(x.counted, y.counted) << "event " << i;
  }
}

/// The whole cache-visible image, read through the pool's own load (which
/// counts as one load on either pool).
template <typename Pool>
std::vector<uint8_t> visible_image(Pool& pool) {
  std::vector<uint8_t> img(pool.size());
  pool.load(0, img.data(), img.size());
  return img;
}

/// (pool bytes, seed): random op sequences run on both pools.
class PoolDifferential
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(PoolDifferential, PagedPoolMatchesFlatReference) {
  const auto [bytes, seed] = GetParam();
  PmPool paged(bytes);
  FlatPool flat(bytes);
  ASSERT_EQ(paged.size(), flat.size());
  const uint64_t size = paged.size();

  // The ops never allocate, so the recorder's alloc_base lookups read 0 on
  // both sides; the flat side's recorder is detached from its host pool and
  // fed by FlatPool directly.
  crash::EventRecorder paged_log(paged);
  PmPool host(4096);
  crash::EventRecorder flat_log(host);
  flat_log.detach();
  flat.set_event_sink(&flat_log);

  Rng rng(seed);
  // Offsets cluster around page boundaries so accesses straddle them.
  auto pick = [&](uint64_t max_len) {
    const uint64_t len = rng.below(std::min(max_len, size) + 1);
    uint64_t off;
    if (rng.chance(0.5)) {
      const uint64_t boundary = rng.below(size / kPage + 1) * kPage;
      off = boundary >= len ? boundary - rng.below(len + 1) : 0;
    } else {
      off = rng.below(size - len + 1);
    }
    off = std::min(off, size - len);
    return std::make_pair(off, len);
  };

  for (int step = 0; step < 1500; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const uint64_t op = rng.below(100);
    if (op < 30) {
      const auto [off, len] = pick(rng.chance(0.1) ? 3 * kPage : 200);
      std::vector<uint8_t> src(len);
      for (uint8_t& b : src) b = static_cast<uint8_t>(rng.next());
      paged.store(off, src.data(), len);
      flat.store(off, src.data(), len);
    } else if (op < 55) {
      const auto [off, len] = pick(rng.chance(0.1) ? 3 * kPage : 200);
      std::vector<uint8_t> a(len, 0xcc), b(len, 0x33);
      paged.load(off, a.data(), len);
      flat.load(off, b.data(), len);
      ASSERT_EQ(a, b) << "load [" << off << ", +" << len << ")";
    } else if (op < 72) {
      const auto [off, len] = pick(rng.chance(0.1) ? 2 * kPage : 200);
      EXPECT_EQ(paged.flush(off, len), flat.flush(off, len));
    } else if (op < 84) {
      paged.fence();
      flat.fence();
    } else if (op < 89) {
      const auto [off, len] = pick(2 * kPage);
      const auto byte = static_cast<uint8_t>(rng.next());
      paged.memset_persist(off, byte, len);
      flat.memset_persist(off, byte, len);
    } else if (op < 95) {
      static constexpr double kP[] = {0.0, 0.5, 1.0};
      CrashOptions opts;
      opts.pending_survives = kP[rng.below(3)];
      opts.dirty_evicted = kP[rng.below(3)];
      const uint64_t crash_seed = rng.next();
      Rng ra(crash_seed), rb(crash_seed);
      paged.crash(opts, &ra);
      flat.crash(opts, rb);
      ASSERT_EQ(visible_image(paged), visible_image(flat));
    } else {
      std::map<uint64_t, std::vector<uint8_t>> lines;
      const uint64_t n = 1 + rng.below(4);
      for (uint64_t i = 0; i < n; ++i) {
        const uint64_t line = rng.chance(0.25)
                                  ? size / kCachelineBytes - 1
                                  : rng.below(size / kCachelineBytes);
        std::vector<uint8_t> content(kCachelineBytes);
        for (uint8_t& b : content) b = static_cast<uint8_t>(rng.next());
        lines[line] = std::move(content);
      }
      paged.install_image(lines);
      flat.install_image(lines);
      ASSERT_EQ(visible_image(paged), visible_image(flat));
    }
    const auto [off, len] = pick(300);
    EXPECT_EQ(paged.is_persisted(off, len), flat.is_persisted(off, len));
    expect_same_stats(paged.stats(), flat.stats());
    if (rng.chance(0.05)) {  // restart line-base announcements
      paged.set_event_sink(&paged_log);
      flat.set_event_sink(&flat_log);
    }
  }
  expect_same_log(paged_log.log(), flat_log.log());
  EXPECT_GT(paged_log.log().events.size(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, PoolDifferential,
    ::testing::Combine(::testing::Values(kPage, kPage + 64,
                                         3 * kPage + 192, uint64_t{1} << 16),
                       ::testing::Values(1, 2, 3)));

TEST(PagedPool, FourGiBPoolRoundTripsItsLastLine) {
  // A flat pool this size would zero 8 GiB up front.
  PmPool pool(uint64_t{1} << 32, LatencyModel::zero());
  const uint64_t last = pool.size() - kCachelineBytes;
  pool.store_val<uint64_t>(last, 0x1234);
  pool.persist(last, 8);
  pool.crash();
  EXPECT_EQ(pool.load_val<uint64_t>(last), 0x1234u);
  EXPECT_EQ(pool.load_val<uint64_t>(uint64_t{1} << 31), 0u);
  EXPECT_EQ(pool.load_val<uint64_t>(last - kPage), 0u);
  EXPECT_EQ(pool.root(), PmPool::kNullOff);
}

TEST(PagedPool, OffsetsNearTheTopOfTheAddressSpaceThrow) {
  PmPool pool(1 << 16, LatencyModel::zero());
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  uint64_t v = 0;
  EXPECT_THROW(pool.load(kMax, &v, 1), std::out_of_range);
  EXPECT_THROW(pool.load(kMax - 3, &v, 8), std::out_of_range);
  EXPECT_THROW(pool.load(8, &v, kMax), std::out_of_range);
  EXPECT_THROW(pool.store(kMax, &v, 1), std::out_of_range);
  EXPECT_THROW(pool.store(kMax - 3, &v, 8), std::out_of_range);
  EXPECT_THROW(pool.load(pool.size() - 4, &v, 8), std::out_of_range);
  // Empty accesses at the very end are in range, as before pages.
  pool.load(pool.size(), &v, 0);
  pool.store(pool.size(), &v, 0);
}

}  // namespace
}  // namespace deepmc::pmem
