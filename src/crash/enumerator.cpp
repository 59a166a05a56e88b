#include "crash/enumerator.h"

#include <algorithm>
#include <cmath>
#include <set>

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

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t fnv_mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t fnv_bytes(uint64_t h, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

uint64_t digest_lines(const std::map<uint64_t, std::vector<uint8_t>>& lines) {
  uint64_t h = kFnvOffset;
  for (const auto& [line, bytes] : lines) {
    h = fnv_mix(h, line);
    h = fnv_bytes(h, bytes.data(), bytes.size());
  }
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

std::vector<size_t> StoreReplay::pending_units(size_t point) const {
  std::vector<size_t> out;
  for (size_t u = 0; u < units_.size(); ++u)
    if (units_[u].pending_at(point)) out.push_back(u);
  return out;
}

std::vector<size_t> StoreReplay::dirty_units(size_t point) const {
  std::vector<size_t> out;
  for (size_t u = 0; u < units_.size(); ++u)
    if (units_[u].dirty_at(point)) out.push_back(u);
  return out;
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
  StoreReplay replay(*log_);
  const size_t n = log_->events.size();

  uint64_t prev_sig = 0;
  bool have_prev = false;
  for (size_t point = 0; point <= n; ++point) {
    if (point != n && !log_->events[point].counted) continue;
    ++st.crash_points;

    std::vector<size_t> inflight = replay.pending_units(point);
    if (opts_.include_dirty) {
      std::vector<size_t> dirty = replay.dirty_units(point);
      inflight.insert(inflight.end(), dirty.begin(), dirty.end());
      std::sort(inflight.begin(), inflight.end());
    }
    const CrashImage base = replay.image_at(point, {});

    // Commit-point pruning: same durable image + same in-flight units as
    // the previous crash point means the subset family is identical too.
    // Reachable space at this point (counted whether or not the point is
    // pruned: pruning is exactly the work this ratio credits as saved).
    const size_t k = inflight.size();
    if (obs::enabled()) pending_units_per_point().observe(k);
    st.subset_space +=
        std::ldexp(1.0, static_cast<int>(std::min<size_t>(k, 1000)));

    uint64_t sig = fnv_mix(base.digest, inflight.size());
    for (size_t u : inflight) sig = fnv_mix(sig, u);
    if (have_prev && sig == prev_sig) {
      ++st.points_pruned;
      continue;
    }
    prev_sig = sig;
    have_prev = true;
    ++st.points_enumerated;

    std::set<uint64_t> seen;
    auto emit = [&](const std::vector<size_t>& extra) {
      DEEPMC_FAULTPOINT("enum.image");
      if (opts_.image_budget != nullptr) opts_.image_budget->charge();
      st.subsets_materialized += 1;
      CrashImage img = extra.empty() ? base : replay.image_at(point, extra);
      if (!seen.insert(img.digest).second) {
        ++st.duplicate_subsets;
        return;
      }
      ++st.images;
      visit(img);
    };

    if (k <= opts_.max_subset_bits) {
      for (uint64_t mask = 0; mask < (1ull << k); ++mask) {
        std::vector<size_t> extra;
        for (size_t b = 0; b < k; ++b)
          if (mask & (1ull << b)) extra.push_back(inflight[b]);
        emit(extra);
      }
    } else {
      ++st.capped_points;
      emit({});
      emit(inflight);
      for (size_t b = 0; b < k; ++b) {
        emit({inflight[b]});
        std::vector<size_t> loo;
        loo.reserve(k - 1);
        for (size_t j = 0; j < k; ++j)
          if (j != b) loo.push_back(inflight[j]);
        emit(loo);
      }
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

  uint64_t prev_sig = 0;
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

    uint64_t sig = fnv_mix(digest_lines(persisted), inflight.size());
    for (const auto& [line, bytes] : inflight)
      sig = fnv_bytes(fnv_mix(sig, line), bytes->data(), bytes->size());
    if (have_prev && sig == prev_sig) {
      ++st.points_pruned;
      return;
    }
    prev_sig = sig;
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
      visit(img);
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
