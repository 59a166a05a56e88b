#include "runtime/dynamic_checker.h"

#include "obs/flight.h"
#include "obs/metrics.h"
#include "support/str.h"

namespace deepmc::rt {

// --- ambient per-thread context ------------------------------------------

namespace {
thread_local StrandId tl_strand = 0;
thread_local uint64_t tl_addr_tag = 0;

std::atomic<uint64_t> g_next_checker_id{1};
std::atomic<uint64_t> g_next_thread_serial{1};
/// Identifies the calling thread to a checker's slot table. Unlike
/// std::thread::id, a serial is never reused by a later thread, so a new
/// thread never inherits a dead thread's slot (and its epoch records).
thread_local const uint64_t tl_thread_serial =
    g_next_thread_serial.fetch_add(1, std::memory_order_relaxed);

/// Adds one to a counter only its owning thread writes: no locked
/// read-modify-write, and other threads still read it race-free.
void bump(std::atomic<uint64_t>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

/// Every deduplicated runtime finding lands in the flight recorder: the
/// post-mortem of a crashed/degraded load run shows which warnings the
/// checker had already discovered, in discovery order.
void flight_warn(const char* rule, uint64_t addr, const SourceLoc& loc) {
  if (!obs::flight().armed()) return;  // loc.str() builds a string
  obs::flight().record("rt.warn",
                       {{"rule", rule}, {"addr", addr}, {"loc", loc.str()}});
}
}  // namespace

StrandId current_strand() { return tl_strand; }
uint64_t current_addr_tag() { return tl_addr_tag; }

StrandScope::StrandScope(RuntimeChecker* rt) : rt_(rt), prev_(tl_strand) {
  if (rt_ != nullptr) s_ = rt_->strand_begin();
  tl_strand = s_;
}

StrandScope::~StrandScope() {
  if (rt_ != nullptr && s_ != 0) rt_->strand_end(s_);
  tl_strand = prev_;
}

AddrSpaceScope::AddrSpaceScope(uint64_t tag) : prev_(tl_addr_tag) {
  tl_addr_tag = tag;
}

AddrSpaceScope::~AddrSpaceScope() { tl_addr_tag = prev_; }

std::string RaceReport::str() const {
  return strformat(
      "%s dependence between concurrent strands %u and %u at PM offset "
      "0x%llx (first: %s, second: %s)",
      kind == RaceKind::kWaw ? "WAW" : "RAW", first_strand, second_strand,
      static_cast<unsigned long long>(addr), first_loc.str().c_str(),
      second_loc.str().c_str());
}

std::string EpochMismatchReport::str() const {
  return strformat(
      "consecutive epochs write to the same persistent object at PM offset "
      "0x%llx (first: %s, second: %s)",
      static_cast<unsigned long long>(object_base), first_loc.str().c_str(),
      second_loc.str().c_str());
}

std::string RuntimeFlushReport::str() const {
  return strformat(
      "runtime redundant write-back at %s: flush wrote back no new data "
      "(PM offset 0x%llx)",
      loc.str().c_str(), static_cast<unsigned long long>(addr));
}

std::string RuntimeBarrierReport::str() const {
  return "transaction at " + loc.str() +
         " begins while earlier flushes await a persist barrier";
}

thread_local RuntimeChecker::SlotCache RuntimeChecker::slot_cache_;

RuntimeChecker::RuntimeChecker(core::PersistencyModel model,
                               const RtOptions& opts)
    : model_(model),
      sample_period_(opts.sample_period == 0 ? 1 : opts.sample_period),
      id_(g_next_checker_id.fetch_add(1, std::memory_order_relaxed)) {}

RuntimeChecker::ThreadSlot& RuntimeChecker::attach_slot() {
  std::lock_guard<std::mutex> lock(slots_mu_);
  ThreadSlot* mine = nullptr;
  for (const std::unique_ptr<ThreadSlot>& t : slots_)
    if (t->owner == tl_thread_serial) mine = t.get();
  if (mine == nullptr) {
    mine = slots_.emplace_back(std::make_unique<ThreadSlot>()).get();
    mine->owner = tl_thread_serial;
  }
  slot_cache_ = {id_, mine};
  return *mine;
}

bool RuntimeChecker::sampled(uint64_t& tick) const {
  return sample_period_ == 1 || tick++ % sample_period_ == 0;
}

void RuntimeChecker::record_race(RaceKind kind, uint64_t addr, StrandId first,
                                 const SourceLoc& first_loc, StrandId second,
                                 const SourceLoc& second_loc) {
  std::lock_guard<std::mutex> lock(mu_);
  // Under sustained load every op opens a fresh strand, so a strand-pair
  // key would grow one report per op pair; the site is the finding.
  if (!race_keys_.insert(addr * 2 + static_cast<uint64_t>(kind)).second)
    return;
  RaceReport r;
  r.kind = kind;
  r.addr = addr;
  r.first_strand = first;
  r.second_strand = second;
  r.first_loc = first_loc;
  r.second_loc = second_loc;
  flight_warn(kind == RaceKind::kWaw ? "waw-race" : "raw-race", addr,
              second_loc);
  races_.push_back(std::move(r));
}

void RuntimeChecker::report_redundant_flush(SourceLoc loc, uint64_t addr) {
  addr += tl_addr_tag;
  std::lock_guard<std::mutex> lock(mu_);
  for (const RuntimeFlushReport& r : redundant_flushes_)
    if (r.loc == loc) return;
  flight_warn("redundant-flush", addr, loc);
  redundant_flushes_.push_back({std::move(loc), addr});
}

void RuntimeChecker::report_unfenced_tx_begin(SourceLoc loc) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const RuntimeBarrierReport& r : barrier_violations_)
    if (r.loc == loc) return;
  flight_warn("unfenced-tx-begin", 0, loc);
  barrier_violations_.push_back({std::move(loc)});
}

void RuntimeChecker::on_alloc(uint64_t base, uint64_t size) {
  base += tl_addr_tag;
  std::lock_guard<std::mutex> lock(objects_mu_);
  objects_[base] = size;
}

void RuntimeChecker::on_free(uint64_t base) {
  base += tl_addr_tag;
  std::lock_guard<std::mutex> lock(objects_mu_);
  objects_.erase(base);
}

uint64_t RuntimeChecker::object_of(uint64_t addr) const {
  std::lock_guard<std::mutex> lock(objects_mu_);
  auto it = objects_.upper_bound(addr);
  if (it == objects_.begin()) return 0;
  --it;
  if (addr < it->first + it->second) return it->first;
  return 0;
}

StrandId RuntimeChecker::strand_begin() {
  // A strand's whole happens-before identity is (birth fence-seq, end
  // fence-seq): O(1) instead of a clock copy.
  ThreadSlot& me = slot();
  const StrandId s =
      clocks_.begin(fence_seq_.load(std::memory_order_acquire), &me.ids);
  bump(me.strands_opened);
  if (!strand_seen_.load(std::memory_order_relaxed))
    strand_seen_.store(true, std::memory_order_relaxed);
  return s;
}

void RuntimeChecker::strand_end(StrandId s) {
  clocks_.end(s, fence_seq_.load(std::memory_order_acquire));
}

void RuntimeChecker::epoch_begin() {
  ThreadSlot& me = slot();
  bump(me.epochs_opened);
  me.in_epoch = true;
  me.current_epoch = EpochRecord{};
}

void RuntimeChecker::epoch_end() {
  ThreadSlot& me = slot();
  if (!me.in_epoch) return;
  me.in_epoch = false;
  if (sampled(me.epoch_tick) && me.have_previous_epoch) {
    for (const auto& [base, rec] : me.current_epoch.objects_written) {
      auto prev = me.previous_epoch.objects_written.find(base);
      if (prev == me.previous_epoch.objects_written.end()) continue;
      // Only disjoint word sets are the "different fields of one object"
      // bug; overlapping sets are repeated updates of the same fields.
      bool overlap = false;
      for (uint64_t w : rec.words)
        if (prev->second.words.count(w)) overlap = true;
      if (overlap) continue;
      std::lock_guard<std::mutex> rlock(mu_);
      bool dup = false;
      for (const EpochMismatchReport& e : epoch_mismatches_)
        if (e.object_base == base && e.second_loc == rec.first_loc) dup = true;
      if (!dup) {
        EpochMismatchReport r;
        r.object_base = base;
        r.first_loc = prev->second.first_loc;
        r.second_loc = rec.first_loc;
        flight_warn("epoch-mismatch", base, rec.first_loc);
        epoch_mismatches_.push_back(std::move(r));
      }
    }
  }
  // The previous epoch always rotates, checked or not: state evolution is
  // identical at every sampling period, which is what makes the sampled
  // warning set a subset of the full one.
  me.previous_epoch = std::move(me.current_epoch);
  me.current_epoch = EpochRecord{};
  me.have_previous_epoch = true;
}

void RuntimeChecker::note_epoch_write(ThreadSlot& me, uint64_t addr,
                                      uint64_t size, const SourceLoc& loc) {
  const uint64_t base = object_of(addr);
  const uint64_t key = base ? base : addr;
  auto [it, inserted] = me.current_epoch.objects_written.try_emplace(key);
  if (inserted) it->second.first_loc = loc;
  for (uint64_t a = addr / 8 * 8; a < addr + size; a += 8)
    it->second.words.insert(a);
}

void RuntimeChecker::on_write(StrandId s, uint64_t addr, uint64_t size,
                              SourceLoc loc) {
  addr += tl_addr_tag;
  ThreadSlot& me = slot();
  bump(me.writes_seen);
  // The shadow segment feeds strand race detection; until a strand has
  // been opened nothing can race, and shadow maintenance would be pure
  // overhead (§5.2 scalability).
  if (strand_seen_.load(std::memory_order_relaxed)) {
    const bool check = sampled(me.check_tick);
    shadow_.for_each_word(
        addr, size, [&](uint64_t word, ShardedShadowSegment::Cell& cell) {
          // WAW: prior write by a strand not ordered before us. Writes
          // outside strands (strand 0) are ordered with everything by
          // program order and never race.
          if (check && cell.written &&
              !clocks_.ordered_before(cell.last_strand, s))
            record_race(RaceKind::kWaw, word, cell.last_strand,
                        cell.last_loc, s, loc);
          cell.written = true;
          cell.last_strand = s;
          cell.last_loc = loc;
        });
  }
  if (me.in_epoch) note_epoch_write(me, addr, size, loc);
}

void RuntimeChecker::on_read(StrandId s, uint64_t addr, uint64_t size,
                             SourceLoc loc) {
  addr += tl_addr_tag;
  ThreadSlot& me = slot();
  bump(me.reads_seen);
  // Reads feed RAW detection only; outside strands they cannot race.
  if (s == 0 || !sampled(me.check_tick)) return;
  shadow_.for_each_word(
      addr, size, [&](uint64_t word, ShardedShadowSegment::Cell& cell) {
        // RAW: reading data written by a concurrent (unordered) strand.
        if (cell.written && !clocks_.ordered_before(cell.last_strand, s))
          record_race(RaceKind::kRaw, word, cell.last_strand, cell.last_loc,
                      s, loc);
      });
}

void RuntimeChecker::on_flush(StrandId, uint64_t, uint64_t) {
  // Flushes do not order strands by themselves; tracked for stats only.
}

void RuntimeChecker::on_fence(StrandId) {
  // A persist barrier is one increment of the global fence sequence; the
  // happens-before join is implicit in the scalar rule (end_seq <
  // birth_seq).
  fence_seq_.fetch_add(1, std::memory_order_acq_rel);
}

RuntimeStats RuntimeChecker::stats() const {
  RuntimeStats s;
  {
    std::lock_guard<std::mutex> lock(slots_mu_);
    for (const std::unique_ptr<ThreadSlot>& t : slots_) {
      s.writes_tracked += t->writes_seen.load(std::memory_order_relaxed);
      s.reads_tracked += t->reads_seen.load(std::memory_order_relaxed);
      s.strands_opened += t->strands_opened.load(std::memory_order_relaxed);
      s.epochs_opened += t->epochs_opened.load(std::memory_order_relaxed);
    }
  }
  s.fences = fence_seq_.load(std::memory_order_relaxed);
  return s;
}

void RuntimeChecker::clear_reports() {
  std::lock_guard<std::mutex> lock(mu_);
  races_.clear();
  epoch_mismatches_.clear();
  redundant_flushes_.clear();
  barrier_violations_.clear();
  race_keys_.clear();
}

void RuntimeChecker::publish_obs() const {
  if (!obs::enabled()) return;
  // Sequential interpreted runs make every count here a pure function of
  // the executed program (kStable); this is the dynamic-checker half of
  // Figure 12's overhead story: how many instrumented events fired and
  // how much shadow memory they pinned.
  static obs::Counter writes = obs::registry().counter(
      "rt.writes_tracked_total", obs::Volatility::kStable,
      "instrumented persistent writes observed");
  static obs::Counter reads = obs::registry().counter(
      "rt.reads_tracked_total", obs::Volatility::kStable,
      "instrumented persistent reads observed");
  static obs::Counter strands = obs::registry().counter(
      "rt.strands_total", obs::Volatility::kStable, "strands opened");
  static obs::Counter epochs = obs::registry().counter(
      "rt.epochs_total", obs::Volatility::kStable, "epochs opened");
  static obs::Counter fences = obs::registry().counter(
      "rt.fences_total", obs::Volatility::kStable,
      "persist barriers observed");
  static obs::Counter shadow_words = obs::registry().counter(
      "rt.shadow_words_total", obs::Volatility::kStable,
      "shadow-memory words tracked at publish time");
  static obs::Counter races_found = obs::registry().counter(
      "rt.races_total", obs::Volatility::kStable,
      "strand WAW/RAW races reported");
  static obs::Counter mismatches = obs::registry().counter(
      "rt.epoch_mismatches_total", obs::Volatility::kStable,
      "epoch semantic mismatches reported");
  const RuntimeStats s = stats();
  writes.inc(s.writes_tracked);
  reads.inc(s.reads_tracked);
  strands.inc(s.strands_opened);
  epochs.inc(s.epochs_opened);
  fences.inc(s.fences);
  shadow_words.inc(tracked_words());
  std::lock_guard<std::mutex> lock(mu_);
  races_found.inc(races_.size());
  mismatches.inc(epoch_mismatches_.size());
}

}  // namespace deepmc::rt
