// Crash-state enumeration over a recorded persistence-event log.
//
// At every crash point (the instant before each counted pool event, plus the
// end of the execution) the set of persisted images the hardware may leave
// behind is: the durable baseline — everything already fenced home (or made
// durable by transaction-commit machinery) — plus ANY SUBSET of the in-flight
// units: flush-pending stores that a power failure may or may not have
// drained, and (optionally) dirty stores the cache may have evicted on its
// own (§1's "unpredictable cache evictions"). That is the Jaaru/WITCHER
// state-space model, specialised to the pool's x86-64 persistence machine.
//
// Two granularities:
//
//  * kStoreRange — in-flight units are the recorded stores themselves, and a
//    flush stages exactly the byte range it names. This is the *model
//    semantics* view the warning validator needs: two fields that happen to
//    share a cacheline stay independent, exactly as the persistency model
//    (not one particular cache geometry) treats them.
//  * kCacheline — in-flight units are whole 64-byte lines with
//    snapshot-at-flush content, bit-for-bit the pool's own staging rules.
//    The empty subset at crash point n reproduces the linear
//    inject_fault_after(n) sweep image, which is how the two subsystems are
//    cross-checked.
//
// The store-range walk is lazy, after Jaaru: it carries the crash state
// forward instead of rebuilding it at every point. The durable baseline
// lives in flat per-line arrays and advances as the walk passes each unit's
// durable_at; a per-byte owner unit keeps program order when a tx commit
// makes a newer logged store durable before an older overlapping one. The
// in-flight set is updated as units are stored (or flushed) and made
// durable. A subset's digest is the baseline's plus the change over the
// words its units write (see digest_lines), and its CrashImage is built
// only for a visitor: an empty Visitor counts images without building any.
//
// Pruning keeps the walk polynomial on realistic logs:
//  * commit-point pruning — a crash point whose in-flight set and durable
//    image both match the previous enumerated point contributes nothing new
//    and is skipped;
//  * subset capping — beyond max_subset_bits pending units, only the
//    boundary family (empty, full, singletons, leave-one-outs) is
//    materialised — every single-unit effect is still witnessed;
//  * per-point image dedup — subsets that collapse to the same bytes (e.g.
//    overwritten stores) are visited once.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/model.h"
#include "crash/event_log.h"
#include "support/budget.h"

namespace deepmc::crash {

inline constexpr size_t kNoEvent = SIZE_MAX;

// ir::RegionKind values, mirrored to keep this library IR-independent.
inline constexpr uint8_t kRegionTx = 0;
inline constexpr uint8_t kRegionEpoch = 1;
inline constexpr uint8_t kRegionStrand = 2;

enum class Granularity : uint8_t { kStoreRange, kCacheline };

/// One reachable persisted image. `point` is a crash position into the
/// event log: the image reflects events [0, point) only.
struct CrashImage {
  size_t point = 0;
  std::map<uint64_t, std::vector<uint8_t>> lines;  ///< line -> 64B content
  uint64_t digest = 0;
};

/// The deterministic identity of an image: the sum of its lines' hashes,
/// where a line's hash sums a 64-bit mix of each 8-byte word with a key for
/// the word's place in the pool. Images that differ in a few words differ
/// in digest by those words' terms alone, which is what lets the
/// enumerator digest a subset as a delta over its baseline. Distinct
/// images collide only by 64-bit accident.
uint64_t digest_lines(const std::map<uint64_t, std::vector<uint8_t>>& lines);

/// A store's durability lifecycle at store-range granularity.
struct StoreUnit {
  size_t event = kNoEvent;  ///< creating store event index
  uint64_t off = 0, size = 0;
  SourceLoc loc;
  uint64_t alloc_base = 0;
  int region = -1;           ///< innermost open region at creation
  bool logged = false;       ///< covered by an active tx.add range
  size_t staged_at = kNoEvent;      ///< flush event index (kNoEvent = never)
  SourceLoc staged_loc;             ///< that flush's source location
  size_t durable_at = kNoEvent;     ///< fence or tx-commit event index
  size_t overwritten_at = kNoEvent; ///< fully covered by a later store

  [[nodiscard]] bool created_by(size_t point) const { return event < point; }
  [[nodiscard]] bool staged_by(size_t point) const {
    return staged_at < point;
  }
  [[nodiscard]] bool durable_by(size_t point) const {
    return durable_at < point;
  }
  /// Dirty = created, never flushed home nor made durable yet.
  [[nodiscard]] bool dirty_at(size_t point) const {
    return created_by(point) && !staged_by(point) && !durable_by(point);
  }
  /// Flush-pending = flushed but the sealing fence has not run yet.
  [[nodiscard]] bool pending_at(size_t point) const {
    return staged_by(point) && !durable_by(point);
  }
};

struct RegionInfo {
  uint8_t kind = kRegionTx;
  int parent = -1;
  size_t depth = 0;  ///< nesting depth at begin (0 = outermost)
  size_t begin_event = kNoEvent, end_event = kNoEvent;
  SourceLoc begin_loc, end_loc;
  size_t tx_adds = 0;  ///< tx.add hints logged directly in this region
};

/// Replays an EventLog once at store-range granularity and exposes the
/// derived timelines: store units with their staging/durability lifecycle,
/// the region tree, and fence positions. The trace oracle and the
/// enumerator both build on this; simulate_root builds one per root and
/// hands it to both.
class StoreReplay {
 public:
  explicit StoreReplay(const EventLog& log);

  [[nodiscard]] const EventLog& log() const { return *log_; }
  [[nodiscard]] const std::vector<StoreUnit>& units() const { return units_; }
  [[nodiscard]] const std::vector<RegionInfo>& regions() const {
    return regions_;
  }
  /// Event indices of fences, in order.
  [[nodiscard]] const std::vector<size_t>& fences() const { return fences_; }

  /// True when `region` is `r` or nested (transitively) inside `r`.
  [[nodiscard]] bool region_within(int region, int r) const;

  /// The smallest valid crash position p with lo < p <= hi — i.e. the
  /// prefix [0, p) contains event `lo`. Valid positions sit before counted
  /// events or at the log end. Returns kNoEvent if none exists.
  [[nodiscard]] size_t crash_point_after(size_t lo, size_t hi) const;

  /// The image at crash position `point` made of the durable baseline plus
  /// the units in `extra` (applied in event order), rebuilt from scratch.
  /// The reference the enumerator's incremental images are tested against.
  [[nodiscard]] CrashImage image_at(size_t point,
                                    const std::vector<size_t>& extra) const;

  /// Write unit `unit`'s payload into `lines` (domain = touched lines).
  void apply_unit(std::map<uint64_t, std::vector<uint8_t>>& lines,
                  size_t unit) const;

 private:
  const EventLog* log_;
  std::vector<StoreUnit> units_;
  std::vector<RegionInfo> regions_;
  std::vector<size_t> fences_;
};

class Enumerator {
 public:
  struct Options {
    core::PersistencyModel model = core::PersistencyModel::kStrict;
    Granularity granularity = Granularity::kStoreRange;
    /// Also treat dirty (never-flushed) stores as in-flight units the cache
    /// may have evicted. The warning validator wants this on; the
    /// fault-sweep cross-check runs with it off (the sweep's worst-case
    /// crash never evicts).
    bool include_dirty = true;
    /// Beyond this many pending units per point, enumerate the boundary
    /// family instead of all 2^k subsets.
    size_t max_subset_bits = 10;
    /// Optional per-enumeration image meter (owned by the caller, must
    /// outlive enumerate()). Charged once per materialised subset;
    /// enumerate() throws support::BudgetExceeded on exhaustion. One
    /// enumeration = one root's event log, so one meter per call is
    /// deterministic at any --jobs.
    support::Budget* image_budget = nullptr;
  };

  struct Stats {
    uint64_t crash_points = 0;      ///< total crash positions in the log
    uint64_t points_enumerated = 0; ///< survived commit-point pruning
    uint64_t points_pruned = 0;
    uint64_t images = 0;            ///< distinct images visited
    uint64_t duplicate_subsets = 0; ///< subsets collapsing to a seen image
    uint64_t capped_points = 0;     ///< points hit by the subset cap
    double subset_space = 0;        ///< sum over points of 2^pending
    double subsets_materialized = 0;

    /// Fraction of the reachable (point, subset) space never materialised.
    [[nodiscard]] double pruning_ratio() const {
      if (subset_space <= 0) return 0.0;
      return 1.0 - subsets_materialized / subset_space;
    }
    void merge(const Stats& o);
  };

  /// Called once per distinct image. An empty Visitor is never called and
  /// the Stats are the same; the store-range walk then builds no image.
  using Visitor = std::function<void(const CrashImage&)>;

  Enumerator(const EventLog& log, Options opts);
  /// Over an existing replay of the log (kept alive by the caller), so a
  /// store-range walk does not replay the log a second time.
  Enumerator(const StoreReplay& replay, Options opts);

  /// Walk every crash point and visit each distinct reachable image.
  /// Deterministic: points ascending, subsets in mask order. The
  /// `enum.image` fault point and the image budget fire once per subset,
  /// visited or not.
  Stats enumerate(const Visitor& visit) const;

  /// Cachelines ever touched by the log (the image domain).
  [[nodiscard]] std::vector<uint64_t> touched_lines() const;

 private:
  Stats enumerate_store_range(const Visitor& visit) const;
  Stats enumerate_cacheline(const Visitor& visit) const;

  const EventLog* log_;
  const StoreReplay* replay_ = nullptr;  ///< store-range only; else replayed
  Options opts_;
};

}  // namespace deepmc::crash
