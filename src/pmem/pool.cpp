#include "pmem/pool.h"

#include <algorithm>
#include <new>

namespace deepmc::pmem {

namespace {
constexpr uint64_t kMagic = 0xdeedc0dedeedc0deull;

uint64_t round_up_line(uint64_t n) {
  return (n + kCachelineBytes - 1) / kCachelineBytes * kCachelineBytes;
}
}  // namespace

PmPool::PmPool(uint64_t size_bytes, LatencyModel latency)
    : size_(round_up_line(std::max<uint64_t>(size_bytes, 2 * kHeaderBytes))),
      pages_((size_ + kPageBytes - 1) / kPageBytes),
      tracker_(latency),
      bump_(kHeaderBytes) {
  // Header: magic at 0, root offset at 8. Persist it as pool creation does.
  store_val<uint64_t>(0, kMagic);
  store_val<uint64_t>(8, kNullOff);
  persist(0, kHeaderBytes);
  reset_stats();
}

uint64_t PmPool::alloc(uint64_t size) {
  const uint64_t sz = round_up_line(std::max<uint64_t>(size, 1));
  auto fl = free_lists_.find(sz);
  if (fl != free_lists_.end() && !fl->second.empty()) {
    const uint64_t off = fl->second.back();
    fl->second.pop_back();
    allocs_[off] = sz;
    return off;
  }
  if (bump_ + sz > size_) throw std::bad_alloc();
  const uint64_t off = bump_;
  bump_ += sz;
  allocs_[off] = sz;
  return off;
}

void PmPool::free(uint64_t off) {
  auto it = allocs_.find(off);
  if (it == allocs_.end())
    throw std::invalid_argument("PmPool::free: not an allocation");
  free_lists_[it->second].push_back(off);
  allocs_.erase(it);
}

uint64_t PmPool::alloc_size(uint64_t off) const {
  auto it = allocs_.find(off);
  return it == allocs_.end() ? 0 : it->second;
}

uint64_t PmPool::alloc_base(uint64_t off) const {
  auto it = allocs_.upper_bound(off);
  if (it == allocs_.begin()) return kNullOff;
  --it;
  if (off < it->first + it->second) return it->first;
  return kNullOff;
}

void PmPool::set_root(uint64_t off) {
  store_val<uint64_t>(8, off);
  persist(8, sizeof(uint64_t));
}

uint64_t PmPool::root() const { return load_val<uint64_t>(8); }

void PmPool::check_range(uint64_t off, uint64_t size) const {
  if (off + size > size_ || off + size < off)
    throw std::out_of_range("PmPool: access beyond pool end");
}

template <typename Fn>
void PmPool::for_each_piece(uint64_t off, uint64_t size, Fn&& fn) {
  for (uint64_t done = 0; done < size;) {
    const uint64_t at = off + done;
    const uint64_t n = std::min(size - done, kPageBytes - at % kPageBytes);
    fn(at / kPageBytes, at % kPageBytes, n, done);
    done += n;
  }
}

PmPool::Page& PmPool::page(uint64_t index) {
  std::unique_ptr<Page>& p = pages_[index];
  if (!p) p = std::make_unique<Page>();
  return *p;
}

uint8_t* PmPool::persisted_line(uint64_t line) {
  const uint64_t base = line * kCachelineBytes;
  return page(base / kPageBytes).persisted + base % kPageBytes;
}

void PmPool::load_slow(uint64_t off, void* dst, uint64_t size) const {
  check_range(off, size);
  auto* out = static_cast<uint8_t*>(dst);
  for_each_piece(off, size, [&](uint64_t pg, uint64_t in, uint64_t n,
                                uint64_t done) {
    if (const Page* p = pages_[pg].get())
      std::memcpy(out + done, p->data + in, n);
    else
      std::memset(out + done, 0, n);
  });
  const_cast<PersistenceTracker&>(tracker_).on_load(off, size);
}

void PmPool::fault_tick() {
  ++event_count_;
  if (!fault_armed_) return;
  if (fault_countdown_ == 0 || --fault_countdown_ == 0) {
    fault_armed_ = false;
    throw PmFault();
  }
}

void PmPool::announce_lines(uint64_t off, uint64_t size) {
  if (!sink_ || size == 0) return;
  static constexpr uint8_t kZeroLine[kCachelineBytes] = {};
  const uint64_t first = line_of(off), last = line_of(off + size - 1);
  for (uint64_t l = first; l <= last; ++l) {
    if (!sink_seen_lines_.insert(l).second) continue;
    const uint64_t base = l * kCachelineBytes;
    const Page* p = pages_[base / kPageBytes].get();
    sink_->on_line_base(l, p ? p->persisted + base % kPageBytes : kZeroLine);
  }
}

void PmPool::store(uint64_t off, const void* src, uint64_t size) {
  fault_tick();
  check_range(off, size);
  const uint64_t in_page = off % kPageBytes;
  if (size != 0 && in_page + size <= kPageBytes) {
    std::memcpy(page(off / kPageBytes).data + in_page, src, size);
  } else {
    const auto* bytes = static_cast<const uint8_t*>(src);
    for_each_piece(off, size, [&](uint64_t pg, uint64_t in, uint64_t n,
                                  uint64_t done) {
      std::memcpy(page(pg).data + in, bytes + done, n);
    });
  }
  tracker_.on_store(off, size);
  if (sink_) {
    announce_lines(off, size);
    sink_->on_store(off, src, size, /*counted=*/true);
  }
}

void PmPool::snapshot_pending_line(uint64_t line) {
  const uint64_t base = line * kCachelineBytes;
  auto& buf = staged_[line];
  if (const Page* p = pages_[base / kPageBytes].get())
    buf.assign(p->data + base % kPageBytes,
               p->data + base % kPageBytes + kCachelineBytes);
  else
    buf.assign(kCachelineBytes, 0);
}

bool PmPool::flush(uint64_t off, uint64_t size) {
  fault_tick();
  if (size == 0) {
    tracker_.on_flush(off, 0);
    // Still a counted event: the sink's log must stay in step with
    // event_count() so crash points name the same events as fault injection.
    if (sink_) sink_->on_flush(off, 0);
    return true;
  }
  check_range(off, size);
  // Snapshot dirty lines before the tracker transitions them, so the staged
  // content is what the clwb actually wrote back.
  const uint64_t first = line_of(off), last = line_of(off + size - 1);
  for (uint64_t l = first; l <= last; ++l)
    if (tracker_.state_at(l * kCachelineBytes) == LineState::kDirty)
      snapshot_pending_line(l);
  bool redundant = false;
  tracker_.on_flush(off, size, &redundant);
  if (sink_) {
    announce_lines(off, size);
    sink_->on_flush(off, size);
  }
  return redundant;
}

void PmPool::fence() {
  fault_tick();
  // Everything staged reaches the persistence domain.
  for (auto& [line, bytes] : staged_)
    std::memcpy(persisted_line(line), bytes.data(), kCachelineBytes);
  staged_.clear();
  tracker_.on_fence();
  if (sink_) sink_->on_fence();
}

void PmPool::memset_persist(uint64_t off, uint8_t byte, uint64_t size) {
  check_range(off, size);
  for_each_piece(off, size, [&](uint64_t pg, uint64_t in, uint64_t n,
                                uint64_t) {
    std::memset(page(pg).data + in, byte, n);
  });
  tracker_.on_store(off, size);
  if (sink_) {
    announce_lines(off, size);
    // The memset does not advance event_count(); recorders that replay the
    // fault-injection sweep need to know this store is "free".
    const std::vector<uint8_t> bytes(size, byte);
    sink_->on_store(off, bytes.data(), size, /*counted=*/false);
  }
  persist(off, size);
}

void PmPool::crash(const CrashOptions& opts, Rng* rng) {
  Rng local(42);
  Rng& r = rng ? *rng : local;

  // Flushed-but-unfenced lines may or may not have drained.
  for (auto& [line, bytes] : staged_) {
    if (r.chance(opts.pending_survives))
      std::memcpy(persisted_line(line), bytes.data(), kCachelineBytes);
  }
  // Dirty lines may have been evicted by the cache.
  if (opts.dirty_evicted > 0.0) {
    for (uint64_t l : tracker_.dirty_lines()) {
      if (r.chance(opts.dirty_evicted)) {
        const uint64_t base = l * kCachelineBytes;
        Page& p = page(base / kPageBytes);
        std::memcpy(p.persisted + base % kPageBytes,
                    p.data + base % kPageBytes, kCachelineBytes);
      }
    }
  }
  restart();
}

void PmPool::install_image(
    const std::map<uint64_t, std::vector<uint8_t>>& lines) {
  // Validate the whole image first: a bad line must not leave the earlier
  // ones half-installed.
  for (const auto& [line, bytes] : lines) {
    if (line >= size_ / kCachelineBytes)
      throw std::out_of_range("PmPool: access beyond pool end");
    if (bytes.size() != kCachelineBytes)
      throw std::invalid_argument(
          "PmPool::install_image: image lines must be whole cachelines");
  }
  for (const auto& [line, bytes] : lines)
    std::memcpy(persisted_line(line), bytes.data(), kCachelineBytes);
  restart();
}

void PmPool::restart() {
  staged_.clear();
  // The surviving image is what recovery sees. A missing page is zero in
  // both images already, so only existing pages need the copy.
  for (const std::unique_ptr<Page>& p : pages_)
    if (p) std::memcpy(p->data, p->persisted, kPageBytes);
  // All cache state is gone after power loss.
  PersistenceStats saved = tracker_.stats();
  tracker_.reset();
  tracker_.mutable_stats() = saved;
}

}  // namespace deepmc::pmem
