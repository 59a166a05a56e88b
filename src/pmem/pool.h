// Emulated persistent-memory pool.
//
// This is the substrate every mini framework (pmdk_mini, pmfs_mini,
// nvmdirect_mini, mnemosyne_mini) and the MIR interpreter run on. It gives:
//
//  * a flat persistent address space addressed by pool offsets, backed
//    sparsely: 4 KiB pages are allocated on first write and a page that was
//    never written reads as zeros, so a pool costs what its run touches,
//  * a 64-byte-aligned allocator (malloc-like functions are where DSA
//    learns that an object is persistent, paper §4.2),
//  * store/load/flush/fence primitives wired into the cacheline
//    persistence state machine (persistence.h),
//  * crash simulation: the pool can "power-fail", after which only data
//    that had reached the persistence domain survives — exactly the
//    experiment that exposes model-violation bugs, and
//  * statistics + a simulated-latency clock that expose performance bugs
//    (redundant flushes, flushes of unmodified data).
//
// Offset 0 is the null offset; a 64-byte pool header holds a magic number
// and the root-object offset, mimicking pmemobj pool layout.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "pmem/persistence.h"
#include "support/rng.h"
#include "support/source_loc.h"

namespace deepmc::pmem {

/// Observer for the pool's persistence-event stream, the feed the crash-state
/// enumerator (src/crash/) records. Two channels share one interface:
///
///  * raw pool events — on_store/on_flush/on_fence fire from inside the data
///    path, *after* fault injection has decided the event happens (an event
///    that throws PmFault is never reported, so a recorded log prefix is
///    exactly what a crash at that point has observed). on_line_base reports
///    the persisted content of a cacheline the first time an event touches it
///    after the sink attaches, giving recorders a baseline image.
///  * annotations — the MIR interpreter forwards source locations, region
///    (tx/epoch/strand) boundaries and tx.add hints so a recorded log can be
///    mapped back to program structure. Framework-level callers that drive
///    the pool directly simply never emit these.
///
/// Default implementations are no-ops; sinks override what they need.
class PmEventSink {
 public:
  virtual ~PmEventSink() = default;

  /// First touch of `line` since the sink attached: `persisted64` points at
  /// the line's current persistence-domain content (kCachelineBytes bytes).
  virtual void on_line_base(uint64_t /*line*/, const uint8_t* /*persisted64*/) {
  }
  /// A store of `size` bytes at `off`. `counted` is false for stores that do
  /// not advance event_count() (the memset half of memset_persist).
  virtual void on_store(uint64_t /*off*/, const void* /*src*/,
                        uint64_t /*size*/, bool /*counted*/) {}
  virtual void on_flush(uint64_t /*off*/, uint64_t /*size*/) {}
  virtual void on_fence() {}

  // --- annotation channel (interpreter-driven) --------------------------
  /// Source location of the next persistence event(s); sticky.
  virtual void on_source_loc(const SourceLoc& /*loc*/) {}
  /// `kind` is the ir::RegionKind value (tx/epoch/strand).
  virtual void on_region_begin(uint8_t /*kind*/, const SourceLoc& /*loc*/) {}
  virtual void on_region_end(uint8_t /*kind*/, const SourceLoc& /*loc*/) {}
  virtual void on_tx_add(uint64_t /*off*/, uint64_t /*size*/,
                         const SourceLoc& /*loc*/) {}
};

/// Thrown when fault injection triggers: the "process" dies at a
/// persistence event. Callers catch it, call crash(), and run recovery —
/// the crash-at-every-point sweep used by the protocol tests.
class PmFault : public std::runtime_error {
 public:
  PmFault() : std::runtime_error("injected power failure") {}
};

/// What survives a simulated power failure.
struct CrashOptions {
  /// Probability that a flushed-but-not-fenced line made it to the media.
  double pending_survives = 1.0;
  /// Probability that a dirty (never flushed) line was evicted by the cache
  /// on its own and therefore survives. The "unpredictable cache evictions"
  /// of §1 — 0 by default so tests are deterministic.
  double dirty_evicted = 0.0;
};

class PmPool {
 public:
  static constexpr uint64_t kNullOff = 0;
  static constexpr uint64_t kHeaderBytes = kCachelineBytes;

  explicit PmPool(uint64_t size_bytes,
                  LatencyModel latency = LatencyModel::optane_like());

  PmPool(const PmPool&) = delete;
  PmPool& operator=(const PmPool&) = delete;

  [[nodiscard]] uint64_t size() const { return size_; }

  // --- allocation -------------------------------------------------------
  /// Allocate `size` bytes (rounded up to a cacheline). Throws
  /// std::bad_alloc on exhaustion. The allocation itself is volatile state;
  /// callers persist their own metadata.
  uint64_t alloc(uint64_t size);
  void free(uint64_t off);
  /// Size of the allocation at `off` (0 if unknown).
  [[nodiscard]] uint64_t alloc_size(uint64_t off) const;
  /// Base offset of the live allocation containing `off` (kNullOff if none).
  [[nodiscard]] uint64_t alloc_base(uint64_t off) const;
  [[nodiscard]] uint64_t live_allocations() const { return allocs_.size(); }

  // --- root object (as in pmemobj_root) ---------------------------------
  void set_root(uint64_t off);
  [[nodiscard]] uint64_t root() const;

  // --- data path ---------------------------------------------------------
  /// Throws std::out_of_range("PmPool: access beyond pool end") unless
  /// [off, off+size) lies in the pool; the range rule of load and store.
  void check_range(uint64_t off, uint64_t size) const;
  void store(uint64_t off, const void* src, uint64_t size);
  /// Inline for the common access that stays within one page; framework
  /// scans issue one load per field, so this is the pool's hottest call.
  void load(uint64_t off, void* dst, uint64_t size) const {
    const uint64_t in_page = off % kPageBytes;
    if (off < size_ && size <= size_ - off && in_page + size <= kPageBytes) {
      if (const Page* p = pages_[off / kPageBytes].get())
        std::memcpy(dst, p->data + in_page, size);
      else
        std::memset(dst, 0, size);
      const_cast<PersistenceTracker&>(tracker_).on_load(off, size);
      return;
    }
    load_slow(off, dst, size);
  }

  template <typename T>
  void store_val(uint64_t off, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    store(off, &v, sizeof(T));
  }
  template <typename T>
  [[nodiscard]] T load_val(uint64_t off) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    load(off, &v, sizeof(T));
    return v;
  }

  /// clwb over [off, off+size). Returns true when the flush was redundant
  /// (no covered line carried new data) — ground truth the dynamic checker
  /// uses for runtime redundant-write-back reports.
  bool flush(uint64_t off, uint64_t size);
  /// sfence.
  void fence();
  /// flush + fence, as pmemobj_persist / nvm_persist1 do.
  void persist(uint64_t off, uint64_t size) {
    flush(off, size);
    fence();
  }
  /// memset + persist, as pmemobj_memset_persist does.
  void memset_persist(uint64_t off, uint8_t byte, uint64_t size);

  // --- fault injection -----------------------------------------------------
  /// Arm fault injection: the `n`-th subsequent persistence event (store,
  /// flush, or fence) throws PmFault *before* taking effect. 0 disarms.
  void inject_fault_after(uint64_t n) {
    fault_countdown_ = n;
    fault_armed_ = n > 0;
  }
  [[nodiscard]] bool fault_armed() const { return fault_armed_; }
  /// Persistence events seen since construction (to size sweeps).
  [[nodiscard]] uint64_t event_count() const { return event_count_; }

  // --- crash simulation ---------------------------------------------------
  /// Simulate a power failure: volatile cache contents are lost, the pool
  /// image reverts to what had reached the persistence domain (modulated by
  /// `opts`). Allocator metadata is preserved (it would be rebuilt by
  /// recovery code in a real system; that is orthogonal to the bugs studied).
  void crash(const CrashOptions& opts = {}, Rng* rng = nullptr);

  /// Replace the persisted image of the given cachelines (line index ->
  /// kCachelineBytes of content) and make it the visible state, as if the
  /// machine power-failed with exactly those lines durable and rebooted.
  /// Lines not mentioned keep their current persisted content. Cache state
  /// is discarded (like crash()); the allocator survives. The recovery
  /// oracles install each enumerated crash image through this before
  /// replaying the framework's recovery entry point. Throws
  /// std::out_of_range / std::invalid_argument, leaving the pool untouched,
  /// if any line lies beyond the pool or is not kCachelineBytes long.
  void install_image(const std::map<uint64_t, std::vector<uint8_t>>& lines);

  // --- event sink ---------------------------------------------------------
  /// Attach an observer for subsequent persistence events (nullptr
  /// detaches). The pool does not own the sink; it must outlive the
  /// attachment. Line-base announcements restart on every attach.
  void set_event_sink(PmEventSink* sink) {
    sink_ = sink;
    sink_seen_lines_.clear();
  }
  [[nodiscard]] PmEventSink* event_sink() const { return sink_; }

  /// True if [off, off+size) is fully persisted (would survive any crash).
  [[nodiscard]] bool is_persisted(uint64_t off, uint64_t size) const {
    return tracker_.is_persisted(off, size);
  }

  [[nodiscard]] const PersistenceStats& stats() const {
    return tracker_.stats();
  }
  void reset_stats() { tracker_.mutable_stats().reset(); }

  [[nodiscard]] const PersistenceTracker& tracker() const { return tracker_; }

 private:
  static constexpr uint64_t kPageBytes = 4096;

  /// One page of the pool in both images. Pages exist only once written; a
  /// missing page is all zeros in both.
  struct alignas(kCachelineBytes) Page {
    uint8_t data[kPageBytes];       ///< "cache-visible" contents
    uint8_t persisted[kPageBytes];  ///< contents in the persistence domain
  };

  /// load() for accesses that cross a page or fail the range check.
  void load_slow(uint64_t off, void* dst, uint64_t size) const;
  /// Split [off, off+size) at page boundaries: fn(page index, offset in
  /// page, piece bytes, bytes before the piece) per piece.
  template <typename Fn>
  static void for_each_piece(uint64_t off, uint64_t size, Fn&& fn);
  /// Page `index`, allocated (zeroed) if it does not exist yet.
  Page& page(uint64_t index);
  /// Persistence-domain bytes of `line`, allocating its page.
  uint8_t* persisted_line(uint64_t line);
  void snapshot_pending_line(uint64_t line);
  void fault_tick();
  /// Announce persisted baselines for lines covering [off, off+size) that
  /// the sink has not seen yet.
  void announce_lines(uint64_t off, uint64_t size);
  /// Power back on: the cache-visible image becomes the persisted one and
  /// all cache state is dropped (stats survive).
  void restart();

  uint64_t size_;
  std::vector<std::unique_ptr<Page>> pages_;  ///< one slot per kPageBytes
  /// Content of lines that were flushed but not yet fenced, snapshotted at
  /// flush time (a later store must not retroactively change what the clwb
  /// wrote back).
  std::map<uint64_t, std::vector<uint8_t>> staged_;
  PersistenceTracker tracker_;

  bool fault_armed_ = false;
  uint64_t fault_countdown_ = 0;
  uint64_t event_count_ = 0;

  PmEventSink* sink_ = nullptr;
  std::set<uint64_t> sink_seen_lines_;  ///< lines announced via on_line_base

  uint64_t bump_;  ///< next free offset
  std::map<uint64_t, uint64_t> allocs_;  ///< off -> size (live)
  std::map<uint64_t, std::vector<uint64_t>> free_lists_;  ///< size -> offsets
};

}  // namespace deepmc::pmem
