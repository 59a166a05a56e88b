// DeepMC dynamic checker runtime library (paper §4.4).
//
// Instrumented NVM programs call into this library at persistent-memory
// events. The checker:
//
//  * detects WAW and RAW dependencies between *concurrent strands* with
//    happens-before race detection over a shadow segment — the
//    strand-persistency rule of Table 4 ("for any concurrent strands
//    S1, S2 operating on addrs A1, A2: A1 ∩ A2 = ∅"), and
//  * tracks which persistent objects consecutive epochs write, reporting
//    the "multiple epochs write to different fields of an object" semantic
//    mismatch at runtime — this is how the paper's 6 dynamically-discovered
//    bugs (hashmap_atomic.c, obj_pmemlog_simple.c) are found.
//
// Happens-before model: strands opened after a persist barrier (fence)
// happen-after every strand that *ended* before that barrier; strands whose
// lifetimes are not separated by a barrier are concurrent — including
// strands of the same thread, which is exactly the relaxation strand
// persistency introduces. Each strand carries two scalars against the
// global fence counter, and T happens-before S iff end_seq(T) <
// birth_seq(S) (EpochClockTable, runtime/clock_table.h).
//
// The runtime is thread-safe, and instrumented multi-threaded apps (Figure
// 12 workloads, src/load) call it concurrently. Each calling thread gets
// its own cache-line-aligned slot for the state only it writes: a block of
// strand ids, its event counters and sampling ticks, and its epoch records
// (epoch persistency splits each thread's own execution into epochs). The
// shadow segment is lock-sharded by 4 KiB page and strand clocks are
// lock-free, so threads working on their own memory share few written
// cache lines; the global fence counter is the main one.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/model.h"
#include "runtime/clock_table.h"
#include "runtime/shadow.h"

namespace deepmc::rt {

enum class RaceKind : uint8_t { kWaw, kRaw };

struct RaceReport {
  RaceKind kind;
  uint64_t addr = 0;
  StrandId first_strand = 0;
  StrandId second_strand = 0;
  SourceLoc first_loc;
  SourceLoc second_loc;

  [[nodiscard]] std::string str() const;
};

/// Runtime-observed redundant write-back: a flush covered no dirty line
/// (the substrate's persistence tracker is the ground truth). This is how
/// the dynamic checker finds redundant-flush bugs that static analysis
/// cannot resolve (e.g. pointers recomputed at runtime).
struct RuntimeFlushReport {
  SourceLoc loc;
  uint64_t addr = 0;
  [[nodiscard]] std::string str() const;
};

/// Runtime-observed missing barrier: a transaction began while flushed
/// lines were still awaiting a fence.
struct RuntimeBarrierReport {
  SourceLoc loc;
  [[nodiscard]] std::string str() const;
};

struct EpochMismatchReport {
  uint64_t object_base = 0;
  SourceLoc first_loc;   ///< write in the earlier epoch
  SourceLoc second_loc;  ///< write in the later epoch

  [[nodiscard]] std::string str() const;
};

struct RuntimeStats {
  uint64_t writes_tracked = 0;
  uint64_t reads_tracked = 0;
  uint64_t strands_opened = 0;
  uint64_t epochs_opened = 0;
  uint64_t fences = 0;
};

// Performance note (paper §4.4/§5.2): "DeepMC reduces the performance and
// storage overhead by only tracking the writes modifying the same or
// overlapped persistent memory regions." The hooks below therefore skip
// the heavyweight machinery whenever it has nothing to do: the shadow
// segment only starts recording writes once the first strand opens, reads
// outside strands cannot race, and writes outside an epoch never touch the
// epoch tracker.

/// Optional event sampling for high-traffic runs (src/load). Every event
/// is still *recorded* into the shadow state; only the race/epoch
/// comparisons run every Nth event of the calling thread, so the sampled
/// warning set is a subset of the full-checking one on the same execution.
struct RtOptions {
  uint32_t sample_period = 1;  ///< run checks every Nth event (1 = all)
};

class RuntimeChecker {
 public:
  explicit RuntimeChecker(core::PersistencyModel model,
                          const RtOptions& opts = {});

  // --- object registry (from pm.alloc instrumentation) --------------------
  void on_alloc(uint64_t base, uint64_t size);
  void on_free(uint64_t base);

  // --- strand lifecycle -----------------------------------------------------
  /// Opens a strand; returns its id. The strand happens-after every strand
  /// that ended before the last persist barrier. Throws std::length_error
  /// past EpochClockTable::kCapacity strands.
  StrandId strand_begin();
  void strand_end(StrandId s);

  // --- epoch lifecycle --------------------------------------------------------
  /// Epochs belong to the calling thread: epoch_end compares the objects
  /// this thread wrote in its epoch with those it wrote in its previous one.
  void epoch_begin();
  void epoch_end();

  // --- memory events ------------------------------------------------------------
  void on_write(StrandId s, uint64_t addr, uint64_t size, SourceLoc loc);
  void on_read(StrandId s, uint64_t addr, uint64_t size, SourceLoc loc);
  void on_flush(StrandId s, uint64_t addr, uint64_t size);

  /// Reported by the execution engine when the substrate observed a flush
  /// that wrote back no new data (deduplicated by location).
  void report_redundant_flush(SourceLoc loc, uint64_t addr);
  /// Reported when a transaction begins with unfenced flushes pending.
  void report_unfenced_tx_begin(SourceLoc loc);
  /// Persist barrier: orders strand creation after it w.r.t. strands ended
  /// before it.
  void on_fence(StrandId s);

  // --- results ----------------------------------------------------------------
  /// Races are deduplicated by (kind, word): one report per racy site, not
  /// one per strand pair, since a server workload opens a strand per op.
  [[nodiscard]] const std::vector<RaceReport>& races() const { return races_; }
  [[nodiscard]] const std::vector<EpochMismatchReport>& epoch_mismatches()
      const {
    return epoch_mismatches_;
  }
  [[nodiscard]] const std::vector<RuntimeFlushReport>& redundant_flushes()
      const {
    return redundant_flushes_;
  }
  [[nodiscard]] const std::vector<RuntimeBarrierReport>& barrier_violations()
      const {
    return barrier_violations_;
  }
  [[nodiscard]] RuntimeStats stats() const;
  [[nodiscard]] size_t tracked_words() const { return shadow_.tracked_words(); }
  void clear_reports();

  /// No-op kept for source compatibility: every hook takes effect before
  /// it returns, so there is nothing to drain before reading reports.
  void drain() {}

  /// Fold this checker's instrumented-event and shadow-memory counts into
  /// the observability registry (rt.* metrics, the Figure 12 overhead
  /// accounting). No-op with observability disabled; call after a run.
  void publish_obs() const;

 private:
  static constexpr uint32_t kShadowShards = 64;

  // Epoch-mismatch tracking: the objects one epoch wrote.
  struct EpochObjectRecord {
    std::set<uint64_t> words;  ///< written word addresses within the object
    SourceLoc first_loc;
  };
  struct EpochRecord {
    std::map<uint64_t, EpochObjectRecord> objects_written;  ///< by base
  };

  /// The state one thread writes. Only the owning thread touches it,
  /// except that stats() reads the counters, which are therefore relaxed
  /// atomics.
  struct alignas(64) ThreadSlot {
    uint64_t owner = 0;  ///< serial of the owning thread (never reused)
    EpochClockTable::IdBlock ids;
    std::atomic<uint64_t> writes_seen{0};
    std::atomic<uint64_t> reads_seen{0};
    std::atomic<uint64_t> strands_opened{0};
    std::atomic<uint64_t> epochs_opened{0};
    uint64_t check_tick = 0;  ///< sampling counter (events)
    uint64_t epoch_tick = 0;  ///< sampling counter (epochs)
    bool in_epoch = false;
    bool have_previous_epoch = false;
    EpochRecord current_epoch;
    EpochRecord previous_epoch;
  };
  /// The thread's last-used checker and its slot there. Keyed by id_,
  /// which no later checker reuses, so a stale entry never matches.
  struct SlotCache {
    uint64_t checker = 0;
    ThreadSlot* slot = nullptr;
  };
  static thread_local SlotCache slot_cache_;

  /// The calling thread's slot, created on its first call.
  ThreadSlot& slot() {
    return slot_cache_.checker == id_ ? *slot_cache_.slot : attach_slot();
  }
  ThreadSlot& attach_slot();

  /// Base offset of the registered object containing `addr` (0 if unknown).
  uint64_t object_of(uint64_t addr) const;
  /// Whether this event runs its checks under sampling; `tick` is only
  /// touched when sampling is on.
  bool sampled(uint64_t& tick) const;
  void record_race(RaceKind kind, uint64_t addr, StrandId first,
                   const SourceLoc& first_loc, StrandId second,
                   const SourceLoc& second_loc);
  void note_epoch_write(ThreadSlot& me, uint64_t addr, uint64_t size,
                        const SourceLoc& loc);

  core::PersistencyModel model_;
  uint32_t sample_period_;
  const uint64_t id_;  ///< unique per checker, never reused
  std::atomic<bool> strand_seen_{false};  ///< a strand has been opened
  ShardedShadowSegment shadow_{kShadowShards};
  EpochClockTable clocks_;
  /// Global persist-barrier counter, the one word every thread writes; on
  /// its own cache line so the read-mostly fields above stay shared.
  alignas(64) std::atomic<uint64_t> fence_seq_{0};

  alignas(64) mutable std::mutex objects_mu_;
  std::map<uint64_t, uint64_t> objects_;  ///< base -> size

  mutable std::mutex slots_mu_;  ///< guards slots_
  std::vector<std::unique_ptr<ThreadSlot>> slots_;

  mutable std::mutex mu_;  ///< guards the reports
  std::vector<RaceReport> races_;
  std::vector<EpochMismatchReport> epoch_mismatches_;
  std::vector<RuntimeFlushReport> redundant_flushes_;
  std::vector<RuntimeBarrierReport> barrier_violations_;
  std::unordered_set<uint64_t> race_keys_;  ///< (kind, word) dedup
};

// --- ambient per-thread context ------------------------------------------
//
// The mini frameworks report events with whatever strand id their caller
// established; single-stream callers never open strands, so their hooks
// historically passed the literal 0 ("no strand"). The workload engine
// needs every framework op attributed to a per-op strand *without*
// changing the framework APIs, so the strand travels thread-locally:
// frameworks call current_strand(), and the engine brackets each op in a
// StrandScope. With no scope active the value is 0 — existing behavior.

/// The calling thread's ambient strand id (0 when no StrandScope is open).
[[nodiscard]] StrandId current_strand();

/// RAII: opens a strand on `rt` (when non-null) and installs it as the
/// thread's ambient strand; closes and restores on destruction.
class StrandScope {
 public:
  explicit StrandScope(RuntimeChecker* rt);
  ~StrandScope();
  StrandScope(const StrandScope&) = delete;
  StrandScope& operator=(const StrandScope&) = delete;

  [[nodiscard]] StrandId id() const { return s_; }

 private:
  RuntimeChecker* rt_;
  StrandId s_ = 0;
  StrandId prev_;
};

/// The calling thread's ambient address-space tag, added to every address
/// a RuntimeChecker hook receives. Lets independent PmPools (whose offsets
/// all start at the same small values) share one checker without false
/// aliasing: give each pool's worker a distinct tag.
[[nodiscard]] uint64_t current_addr_tag();

/// RAII address-space tag installer. Tags should be multiples of a power
/// of two far above any pool size, e.g. `uint64_t(worker + 1) << 44`.
class AddrSpaceScope {
 public:
  explicit AddrSpaceScope(uint64_t tag);
  ~AddrSpaceScope();
  AddrSpaceScope(const AddrSpaceScope&) = delete;
  AddrSpaceScope& operator=(const AddrSpaceScope&) = delete;

 private:
  uint64_t prev_;
};

}  // namespace deepmc::rt
