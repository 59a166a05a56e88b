#include "crash/enumerator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <set>
#include <utility>

#include "obs/metrics.h"
#include "support/faultpoint.h"

namespace deepmc::crash {

namespace {

// The log is a deterministic record of one interpreted execution, so the
// distribution of in-flight units per crash point is stable.

obs::Counter& enumerations() {
  static obs::Counter c = obs::registry().counter(
      "crash.enumerations_total", obs::Volatility::kStable,
      "Enumerator::enumerate invocations");
  return c;
}

obs::Histogram& pending_units_per_point() {
  static obs::Histogram h = obs::registry().histogram(
      "crash.pending_units_per_point", obs::Volatility::kStable,
      "in-flight persistence units per crash point", {1, 2, 4, 8, 16, 32});
  return h;
}

// Image digests. A line's hash is a sum over its 8-byte words of
// fmix64(word ^ key), the key naming the word's place in the pool; an
// image's digest is the sum of its lines' hashes. Changing a few words
// therefore changes the digest by their terms alone.

constexpr size_t kWordBytes = 8;
constexpr size_t kLineWords = pmem::kCachelineBytes / kWordBytes;

// MurmurHash3's 64-bit finalizer (serve::Hasher ends with it too).
uint64_t fmix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

uint64_t word_key(uint64_t line, size_t word) {
  return fmix64(line * kLineWords + word + 0x9e3779b97f4a7c15ull);
}

uint64_t word_term(uint64_t key, uint64_t value) { return fmix64(value ^ key); }

/// Word `word` of `n` bytes at `bytes`, zero-padded past the end.
uint64_t load_word(const uint8_t* bytes, size_t n, size_t word) {
  uint64_t v = 0;
  const size_t at = word * kWordBytes;
  std::memcpy(&v, bytes + at, std::min(kWordBytes, n - at));
  return v;
}

uint64_t line_digest(uint64_t line, const std::vector<uint8_t>& bytes) {
  uint64_t h = 0;
  for (size_t w = 0; w * kWordBytes < bytes.size(); ++w)
    h += word_term(word_key(line, w), load_word(bytes.data(), bytes.size(), w));
  return h;
}

// The store-range crash state, carried from one crash point to the next:
// the durable baseline in flat per-line arrays with its digest, and an
// overlay for one subset of in-flight units at a time.
class DurableBaseline {
 public:
  explicit DurableBaseline(const StoreReplay& replay) : replay_(&replay) {
    const EventLog& log = replay.log();
    lines_.reserve(log.line_bases.size());
    bytes_.reserve(log.line_bases.size() * pmem::kCachelineBytes);
    for (const auto& [line, base] : log.line_bases) {
      lines_.push_back(line);
      bytes_.insert(bytes_.end(), base.begin(), base.end());
    }
    owner_.assign(bytes_.size(), 0);
    keys_.resize(lines_.size() * kLineWords);
    terms_.resize(keys_.size());
    slot_of_word_.assign(keys_.size(), kNoSlot);
    for (size_t w = 0; w < keys_.size(); ++w) {
      keys_[w] = word_key(lines_[w / kLineWords], w % kLineWords);
      terms_[w] = word_term(keys_[w], word_at(w));
      digest_ += terms_[w];
    }

    // Each unit's bytes as runs within one image line; bytes on lines
    // outside the image domain are dropped, as apply_unit drops them.
    const std::vector<StoreUnit>& units = replay.units();
    runs_begin_.reserve(units.size() + 1);
    for (const StoreUnit& u : units) {
      runs_begin_.push_back(runs_.size());
      for (uint64_t pos = u.off; pos < u.off + u.size;) {
        const uint64_t line = pmem::line_of(pos);
        const uint64_t end =
            std::min(u.off + u.size, (line + 1) * pmem::kCachelineBytes);
        const auto it = std::lower_bound(lines_.begin(), lines_.end(), line);
        if (it != lines_.end() && *it == line)
          runs_.push_back(Run{
              static_cast<size_t>(it - lines_.begin()) * pmem::kCachelineBytes +
                  pos % pmem::kCachelineBytes,
              end - pos, pos - u.off});
        pos = end;
      }
    }
    runs_begin_.push_back(runs_.size());
  }

  [[nodiscard]] uint64_t digest() const { return digest_; }

  /// Fold unit `u` into the baseline. A byte a program-later unit already
  /// made durable keeps that unit's value: a tx commit can make a newer
  /// logged store durable before an older overlapping one is fenced.
  void make_durable(size_t u) {
    const uint32_t tag = static_cast<uint32_t>(u) + 1;
    const uint8_t* src = payload(u);
    for (size_t r = runs_begin_[u]; r < runs_begin_[u + 1]; ++r) {
      const Run& run = runs_[r];
      for (size_t i = 0; i < run.len; ++i) {
        const size_t b = run.byte + i;
        if (owner_[b] > tag) continue;
        bytes_[b] = src[run.src + i];
        owner_[b] = tag;
      }
      for (size_t w = run.byte / kWordBytes;
           w <= (run.byte + run.len - 1) / kWordBytes; ++w) {
        digest_ -= terms_[w];
        terms_[w] = word_term(keys_[w], word_at(w));
        digest_ += terms_[w];
      }
    }
  }

  /// Digest of the baseline with `units` (ascending) applied on top, in
  /// program order. The changed words stay in the overlay for image().
  uint64_t overlay(const std::vector<size_t>& units) {
    for (const Slot& s : slots_) slot_of_word_[s.word] = kNoSlot;
    slots_.clear();
    for (size_t u : units) {
      const uint32_t tag = static_cast<uint32_t>(u) + 1;
      const uint8_t* src = payload(u);
      for (size_t r = runs_begin_[u]; r < runs_begin_[u + 1]; ++r) {
        const Run& run = runs_[r];
        for (size_t i = 0; i < run.len; ++i) {
          const size_t b = run.byte + i;
          if (owner_[b] > tag) continue;  // a later store is durable there
          const size_t w = b / kWordBytes;
          uint32_t& slot = slot_of_word_[w];
          if (slot == kNoSlot) {
            slot = static_cast<uint32_t>(slots_.size());
            slots_.push_back(Slot{w, word_at(w)});
          }
          reinterpret_cast<uint8_t*>(&slots_[slot].value)[b % kWordBytes] =
              src[run.src + i];
        }
      }
    }
    uint64_t d = digest_;
    for (const Slot& s : slots_)
      d += word_term(keys_[s.word], s.value) - terms_[s.word];
    return d;
  }

  /// The image of the last overlay() at crash position `point`.
  [[nodiscard]] CrashImage image(size_t point, uint64_t digest) const {
    CrashImage img;
    img.point = point;
    img.digest = digest;
    for (size_t l = 0; l < lines_.size(); ++l) {
      const uint8_t* base = bytes_.data() + l * pmem::kCachelineBytes;
      img.lines.emplace_hint(
          img.lines.end(), lines_[l],
          std::vector<uint8_t>(base, base + pmem::kCachelineBytes));
    }
    for (const Slot& s : slots_) {
      std::vector<uint8_t>& line = img.lines.at(lines_[s.word / kLineWords]);
      std::memcpy(line.data() + s.word % kLineWords * kWordBytes, &s.value,
                  kWordBytes);
    }
    return img;
  }

 private:
  struct Run {
    size_t byte;  ///< first image byte (line index * 64 + offset)
    size_t len;
    size_t src;   ///< offset into the unit's payload
  };
  struct Slot {
    size_t word;
    uint64_t value;
  };
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  [[nodiscard]] const uint8_t* payload(size_t u) const {
    return replay_->log().events[replay_->units()[u].event].bytes.data();
  }
  [[nodiscard]] uint64_t word_at(size_t w) const {
    uint64_t v = 0;
    std::memcpy(&v, bytes_.data() + w * kWordBytes, kWordBytes);
    return v;
  }

  const StoreReplay* replay_;
  std::vector<uint64_t> lines_;   ///< image domain, ascending
  std::vector<uint8_t> bytes_;    ///< durable content, 64 bytes per line
  std::vector<uint32_t> owner_;   ///< per byte: durable unit + 1, 0 = base
  std::vector<uint64_t> keys_;    ///< per word
  std::vector<uint64_t> terms_;   ///< per word: its share of digest_
  uint64_t digest_ = 0;
  std::vector<Run> runs_;
  std::vector<size_t> runs_begin_;  ///< unit u's runs: [begin[u], begin[u+1])
  std::vector<Slot> slots_;         ///< the overlay's changed words
  std::vector<uint32_t> slot_of_word_;
};

}  // namespace

uint64_t digest_lines(const std::map<uint64_t, std::vector<uint8_t>>& lines) {
  uint64_t h = 0;
  for (const auto& [line, bytes] : lines) h += line_digest(line, bytes);
  return h;
}

StoreReplay::StoreReplay(const EventLog& log) : log_(&log) {
  struct AddRange {
    int region;
    uint64_t off, size;
  };
  std::vector<int> open;
  std::vector<AddRange> adds;

  for (size_t i = 0; i < log.events.size(); ++i) {
    const Event& e = log.events[i];
    switch (e.kind) {
      case EventKind::kRegionBegin: {
        RegionInfo r;
        r.kind = e.region_kind;
        r.parent = open.empty() ? -1 : open.back();
        r.depth = open.size();
        r.begin_event = i;
        r.begin_loc = e.loc;
        open.push_back(static_cast<int>(regions_.size()));
        regions_.push_back(r);
        break;
      }
      case EventKind::kRegionEnd: {
        if (open.empty()) break;
        const int r = open.back();
        open.pop_back();
        RegionInfo& ri = regions_[static_cast<size_t>(r)];
        ri.end_event = i;
        ri.end_loc = e.loc;
        if (ri.kind == kRegionTx) {
          // Transaction commit machinery drains the logged working set: a
          // logged store inside the region is durable at commit even when
          // the program never fenced it itself.
          for (StoreUnit& u : units_) {
            if (u.logged && u.durable_at == kNoEvent &&
                u.event > ri.begin_event && u.event < i &&
                region_within(u.region, r))
              u.durable_at = i;
          }
        }
        adds.erase(std::remove_if(
                       adds.begin(), adds.end(),
                       [r](const AddRange& a) { return a.region == r; }),
                   adds.end());
        break;
      }
      case EventKind::kTxAdd: {
        const int r = open.empty() ? -1 : open.back();
        adds.push_back(AddRange{r, e.off, e.size});
        if (r >= 0) ++regions_[static_cast<size_t>(r)].tx_adds;
        break;
      }
      case EventKind::kStore: {
        StoreUnit u;
        u.event = i;
        u.off = e.off;
        u.size = e.size;
        u.loc = e.loc;
        u.alloc_base = e.alloc_base;
        u.region = open.empty() ? -1 : open.back();
        for (const AddRange& a : adds) {
          if (e.off >= a.off && e.off + e.size <= a.off + a.size) {
            u.logged = true;
            break;
          }
        }
        for (StoreUnit& prev : units_) {
          if (prev.overwritten_at == kNoEvent && prev.off >= e.off &&
              prev.off + prev.size <= e.off + e.size)
            prev.overwritten_at = i;
        }
        units_.push_back(std::move(u));
        break;
      }
      case EventKind::kFlush: {
        if (e.size == 0) break;  // covers no byte, so stages nothing
        for (StoreUnit& u : units_) {
          if (u.staged_at == kNoEvent && u.durable_at == kNoEvent &&
              u.off < e.off + e.size && e.off < u.off + u.size) {
            u.staged_at = i;
            u.staged_loc = e.loc;
          }
        }
        break;
      }
      case EventKind::kFence: {
        fences_.push_back(i);
        for (StoreUnit& u : units_) {
          if (u.staged_at != kNoEvent && u.durable_at == kNoEvent)
            u.durable_at = i;
        }
        break;
      }
    }
  }
}

bool StoreReplay::region_within(int region, int r) const {
  while (region >= 0) {
    if (region == r) return true;
    region = regions_[static_cast<size_t>(region)].parent;
  }
  return false;
}

size_t StoreReplay::crash_point_after(size_t lo, size_t hi) const {
  const size_t n = log_->events.size();
  for (size_t p = lo + 1; p <= hi && p <= n; ++p) {
    if (p == n || log_->events[p].counted) return p;
  }
  return kNoEvent;
}

void StoreReplay::apply_unit(std::map<uint64_t, std::vector<uint8_t>>& lines,
                             size_t unit) const {
  const StoreUnit& u = units_[unit];
  const Event& e = log_->events[u.event];
  for (uint64_t i = 0; i < u.size; ++i) {
    const uint64_t line = pmem::line_of(u.off + i);
    auto it = lines.find(line);
    if (it == lines.end()) continue;
    it->second[(u.off + i) % pmem::kCachelineBytes] = e.bytes[i];
  }
}

CrashImage StoreReplay::image_at(size_t point,
                                 const std::vector<size_t>& extra) const {
  CrashImage img;
  img.point = point;
  for (const auto& [line, base] : log_->line_bases)
    img.lines.emplace(line, std::vector<uint8_t>(base.begin(), base.end()));
  std::vector<size_t> apply;
  for (size_t u = 0; u < units_.size(); ++u)
    if (units_[u].durable_by(point)) apply.push_back(u);
  apply.insert(apply.end(), extra.begin(), extra.end());
  // Units are event-ordered, so index order == program store order.
  std::sort(apply.begin(), apply.end());
  apply.erase(std::unique(apply.begin(), apply.end()), apply.end());
  for (size_t u : apply) apply_unit(img.lines, u);
  img.digest = digest_lines(img.lines);
  return img;
}

void Enumerator::Stats::merge(const Stats& o) {
  crash_points += o.crash_points;
  points_enumerated += o.points_enumerated;
  points_pruned += o.points_pruned;
  images += o.images;
  duplicate_subsets += o.duplicate_subsets;
  capped_points += o.capped_points;
  subset_space += o.subset_space;
  subsets_materialized += o.subsets_materialized;
}

Enumerator::Enumerator(const EventLog& log, Options opts)
    : log_(&log), opts_(opts) {}

Enumerator::Enumerator(const StoreReplay& replay, Options opts)
    : log_(&replay.log()), replay_(&replay), opts_(opts) {}

Enumerator::Stats Enumerator::enumerate(const Visitor& visit) const {
  if (obs::enabled()) enumerations().inc();
  return opts_.granularity == Granularity::kStoreRange
             ? enumerate_store_range(visit)
             : enumerate_cacheline(visit);
}

std::vector<uint64_t> Enumerator::touched_lines() const {
  std::vector<uint64_t> out;
  out.reserve(log_->line_bases.size());
  for (const auto& [line, base] : log_->line_bases) out.push_back(line);
  return out;
}

Enumerator::Stats Enumerator::enumerate_store_range(
    const Visitor& visit) const {
  Stats st;
  std::optional<StoreReplay> own;
  const StoreReplay& replay =
      replay_ != nullptr ? *replay_ : own.emplace(*log_);
  const std::vector<StoreUnit>& units = replay.units();
  DurableBaseline baseline(replay);

  // A unit is in flight from the event after the one that puts it there
  // (its store; its flush when dirty units are left out) through the event
  // that makes it durable.
  const auto entry = [&](size_t u) {
    return opts_.include_dirty ? units[u].event : units[u].staged_at;
  };
  std::vector<size_t> by_entry, by_durable;
  for (size_t u = 0; u < units.size(); ++u) {
    if (entry(u) != kNoEvent) by_entry.push_back(u);
    if (units[u].durable_at != kNoEvent) by_durable.push_back(u);
  }
  std::stable_sort(by_entry.begin(), by_entry.end(),
                   [&](size_t a, size_t b) { return entry(a) < entry(b); });
  std::stable_sort(by_durable.begin(), by_durable.end(),
                   [&](size_t a, size_t b) {
                     return units[a].durable_at < units[b].durable_at;
                   });

  std::vector<size_t> inflight;  // ascending unit indices
  std::vector<size_t> prev_inflight;
  uint64_t prev_digest = 0;
  bool have_prev = false;
  std::vector<size_t> subset;
  std::vector<uint64_t> seen;

  auto emit = [&](size_t point) {
    DEEPMC_FAULTPOINT("enum.image");
    if (opts_.image_budget != nullptr) opts_.image_budget->charge();
    st.subsets_materialized += 1;
    const uint64_t digest = baseline.overlay(subset);
    if (std::find(seen.begin(), seen.end(), digest) != seen.end()) {
      ++st.duplicate_subsets;
      return;
    }
    seen.push_back(digest);
    ++st.images;
    if (visit) visit(baseline.image(point, digest));
  };

  auto visit_point = [&](size_t point) {
    ++st.crash_points;
    // Reachable space at this point (counted whether or not the point is
    // pruned: pruning is exactly the work this ratio credits as saved).
    const size_t k = inflight.size();
    if (obs::enabled()) pending_units_per_point().observe(k);
    st.subset_space +=
        std::ldexp(1.0, static_cast<int>(std::min<size_t>(k, 1000)));

    // Commit-point pruning: same durable image + same in-flight units as
    // the previous crash point means the subset family is identical too.
    if (have_prev && baseline.digest() == prev_digest &&
        inflight == prev_inflight) {
      ++st.points_pruned;
      return;
    }
    prev_digest = baseline.digest();
    prev_inflight = inflight;
    have_prev = true;
    ++st.points_enumerated;

    seen.clear();
    if (k <= opts_.max_subset_bits) {
      for (uint64_t mask = 0; mask < (1ull << k); ++mask) {
        subset.clear();
        for (size_t b = 0; b < k; ++b)
          if (mask & (1ull << b)) subset.push_back(inflight[b]);
        emit(point);
      }
    } else {
      ++st.capped_points;
      subset.clear();
      emit(point);
      subset = inflight;
      emit(point);
      for (size_t b = 0; b < k; ++b) {
        subset.assign(1, inflight[b]);
        emit(point);
        subset.clear();
        for (size_t j = 0; j < k; ++j)
          if (j != b) subset.push_back(inflight[j]);
        emit(point);
      }
    }
  };

  const size_t n = log_->events.size();
  size_t next_entry = 0, next_durable = 0;
  for (size_t point = 0; point <= n; ++point) {
    if (point == n || log_->events[point].counted) visit_point(point);
    if (point == n) break;
    // Event `point` takes effect from crash position point + 1 on.
    for (; next_entry < by_entry.size() && entry(by_entry[next_entry]) == point;
         ++next_entry) {
      const size_t u = by_entry[next_entry];
      inflight.insert(std::upper_bound(inflight.begin(), inflight.end(), u),
                      u);
    }
    for (; next_durable < by_durable.size() &&
           units[by_durable[next_durable]].durable_at == point;
         ++next_durable) {
      const size_t u = by_durable[next_durable];
      const auto it = std::lower_bound(inflight.begin(), inflight.end(), u);
      if (it != inflight.end() && *it == u) inflight.erase(it);
      baseline.make_durable(u);
    }
  }
  return st;
}

Enumerator::Stats Enumerator::enumerate_cacheline(const Visitor& visit) const {
  Stats st;
  using Line = std::vector<uint8_t>;
  std::map<uint64_t, Line> persisted, data, staged;
  std::set<uint64_t> dirty;
  for (const auto& [line, base] : log_->line_bases) {
    persisted.emplace(line, Line(base.begin(), base.end()));
    data.emplace(line, Line(base.begin(), base.end()));
  }
  const size_t n = log_->events.size();

  uint64_t prev_digest = 0;
  std::vector<std::pair<uint64_t, Line>> prev_inflight;
  bool have_prev = false;
  auto visit_point = [&](size_t point) {
    ++st.crash_points;
    // A line can be in flight twice: an older flushed snapshot queued for
    // write-back AND a newer dirty copy the cache may evict. Snapshots list
    // first; a selected dirty copy is applied after and wins, mirroring the
    // pool's crash() order.
    std::vector<std::pair<uint64_t, const Line*>> inflight;
    for (const auto& [line, snap] : staged) inflight.emplace_back(line, &snap);
    if (opts_.include_dirty)
      for (uint64_t l : dirty) inflight.emplace_back(l, &data.at(l));

    // Reachable space at this point (counted whether or not the point is
    // pruned: pruning is exactly the work this ratio credits as saved).
    const size_t k = inflight.size();
    if (obs::enabled()) pending_units_per_point().observe(k);
    st.subset_space +=
        std::ldexp(1.0, static_cast<int>(std::min<size_t>(k, 1000)));

    const uint64_t persisted_digest = digest_lines(persisted);
    if (have_prev && persisted_digest == prev_digest &&
        std::equal(inflight.begin(), inflight.end(), prev_inflight.begin(),
                   prev_inflight.end(), [](const auto& a, const auto& b) {
                     return a.first == b.first && *a.second == b.second;
                   })) {
      ++st.points_pruned;
      return;
    }
    prev_digest = persisted_digest;
    prev_inflight.clear();
    for (const auto& [line, bytes] : inflight)
      prev_inflight.emplace_back(line, *bytes);
    have_prev = true;
    ++st.points_enumerated;

    std::set<uint64_t> seen;
    auto emit = [&](const std::vector<size_t>& sel) {
      DEEPMC_FAULTPOINT("enum.image");
      if (opts_.image_budget != nullptr) opts_.image_budget->charge();
      st.subsets_materialized += 1;
      CrashImage img;
      img.point = point;
      img.lines = persisted;
      for (size_t i : sel) img.lines[inflight[i].first] = *inflight[i].second;
      img.digest = digest_lines(img.lines);
      if (!seen.insert(img.digest).second) {
        ++st.duplicate_subsets;
        return;
      }
      ++st.images;
      if (visit) visit(img);
    };

    if (k <= opts_.max_subset_bits) {
      for (uint64_t mask = 0; mask < (1ull << k); ++mask) {
        std::vector<size_t> sel;
        for (size_t b = 0; b < k; ++b)
          if (mask & (1ull << b)) sel.push_back(b);
        emit(sel);
      }
    } else {
      ++st.capped_points;
      std::vector<size_t> all(k);
      for (size_t b = 0; b < k; ++b) all[b] = b;
      emit({});
      emit(all);
      for (size_t b = 0; b < k; ++b) {
        emit({b});
        std::vector<size_t> loo;
        loo.reserve(k - 1);
        for (size_t j = 0; j < k; ++j)
          if (j != b) loo.push_back(j);
        emit(loo);
      }
    }
  };

  for (size_t p = 0; p <= n; ++p) {
    if (p == n || log_->events[p].counted) visit_point(p);
    if (p == n) break;
    const Event& e = log_->events[p];
    switch (e.kind) {
      case EventKind::kStore: {
        for (uint64_t i = 0; i < e.size; ++i) {
          const uint64_t line = pmem::line_of(e.off + i);
          data.at(line)[(e.off + i) % pmem::kCachelineBytes] = e.bytes[i];
          dirty.insert(line);
        }
        break;
      }
      case EventKind::kFlush: {
        if (e.size == 0) break;
        const uint64_t first = pmem::line_of(e.off);
        const uint64_t last = pmem::line_of(e.off + e.size - 1);
        for (uint64_t l = first; l <= last; ++l) {
          if (dirty.count(l)) {
            staged[l] = data.at(l);
            dirty.erase(l);
          }
        }
        break;
      }
      case EventKind::kFence: {
        for (auto& [l, snap] : staged) persisted[l] = snap;
        staged.clear();
        break;
      }
      default:
        break;
    }
  }
  return st;
}

}  // namespace deepmc::crash
