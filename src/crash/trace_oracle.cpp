#include "crash/trace_oracle.h"

#include <algorithm>
#include <map>
#include <set>

namespace deepmc::crash {

namespace {

using core::PersistencyModel;

/// Byte-interval union of all stores in `unit_ids`, as sorted merged ranges.
std::vector<std::pair<uint64_t, uint64_t>> range_union(
    const StoreReplay& replay, const std::vector<size_t>& unit_ids) {
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  for (size_t u : unit_ids) {
    const StoreUnit& s = replay.units()[u];
    ranges.emplace_back(s.off, s.off + s.size);
  }
  std::sort(ranges.begin(), ranges.end());
  std::vector<std::pair<uint64_t, uint64_t>> merged;
  for (const auto& r : ranges) {
    if (!merged.empty() && r.first <= merged.back().second)
      merged.back().second = std::max(merged.back().second, r.second);
    else
      merged.push_back(r);
  }
  return merged;
}

bool unions_overlap(const std::vector<std::pair<uint64_t, uint64_t>>& a,
                    const std::vector<std::pair<uint64_t, uint64_t>>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].second <= b[j].first)
      ++i;
    else if (b[j].second <= a[i].first)
      ++j;
    else
      return true;
  }
  return false;
}

void add_culprit(std::vector<SourceLoc>& culprits, const SourceLoc& loc) {
  if (!loc.valid()) return;
  if (std::find(culprits.begin(), culprits.end(), loc) == culprits.end())
    culprits.push_back(loc);
}

// Rule A: unlogged store inside a logging transaction region.
void rule_rollback_exposure(const StoreReplay& replay,
                            std::vector<Witness>& out) {
  for (size_t r = 0; r < replay.regions().size(); ++r) {
    const RegionInfo& ri = replay.regions()[r];
    if (ri.kind != kRegionTx || ri.tx_adds == 0) continue;
    if (ri.end_event == kNoEvent) continue;
    for (size_t u = 0; u < replay.units().size(); ++u) {
      const StoreUnit& s = replay.units()[u];
      if (s.logged || !s.loc.valid()) continue;
      if (s.event <= ri.begin_event || s.event >= ri.end_event) continue;
      if (!replay.region_within(s.region, static_cast<int>(r))) continue;
      const size_t p = replay.crash_point_after(s.event, ri.end_event);
      if (p == kNoEvent) continue;
      Witness w;
      w.rule = "crash.rollback-exposure";
      add_culprit(w.culprits, s.loc);
      out.push_back(std::move(w));
    }
  }
}

// Rule B: flushed-unfenced store crossing a region boundary or reaching the
// end of the execution.
void rule_unfenced_boundary(const StoreReplay& replay,
                            std::vector<Witness>& out) {
  const size_t n = replay.log().events.size();
  // Candidate boundary positions: first valid crash point at-or-after every
  // non-strand region begin/end marker, plus the end of the trace.
  std::vector<size_t> boundaries;
  for (const RegionInfo& ri : replay.regions()) {
    if (ri.kind == kRegionStrand) continue;
    if (ri.begin_event != kNoEvent) {
      const size_t p = replay.crash_point_after(
          ri.begin_event == 0 ? 0 : ri.begin_event - 1, n);
      if (p != kNoEvent) boundaries.push_back(p);
    }
    if (ri.end_event != kNoEvent) {
      const size_t p = replay.crash_point_after(ri.end_event - 1, n);
      if (p != kNoEvent) boundaries.push_back(p);
    }
  }
  boundaries.push_back(n);
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());

  for (size_t u = 0; u < replay.units().size(); ++u) {
    const StoreUnit& s = replay.units()[u];
    if (s.logged || !s.loc.valid()) continue;
    for (const size_t p : boundaries) {
      if (!s.staged_by(p) || s.durable_by(p)) continue;
      Witness w;
      w.rule = "crash.unfenced-boundary";
      add_culprit(w.culprits, s.loc);
      add_culprit(w.culprits, s.staged_loc);
      out.push_back(std::move(w));
      break;  // one boundary witness per store suffices
    }
  }
}

// Rule C: one fence seals flushed stores to >= 2 distinct allocations.
void rule_torn_fence_group(const StoreReplay& replay,
                           std::vector<Witness>& out) {
  for (size_t pf : replay.fences()) {
    std::vector<size_t> group;
    std::set<uint64_t> bases;
    for (size_t u = 0; u < replay.units().size(); ++u) {
      const StoreUnit& s = replay.units()[u];
      if (s.logged || !s.loc.valid()) continue;
      if (!s.staged_by(pf) || s.durable_by(pf)) continue;
      if (s.alloc_base == 0) continue;
      group.push_back(u);
      bases.insert(s.alloc_base);
    }
    if (bases.size() < 2) continue;
    Witness w;
    w.rule = "crash.torn-fence-group";
    for (size_t u : group) add_culprit(w.culprits, replay.units()[u].loc);
    add_culprit(w.culprits, replay.log().events[pf].loc);
    out.push_back(std::move(w));
  }
}

// Rule D: consecutive sibling regions update disjoint parts of one object.
void rule_cross_region_tear(const StoreReplay& replay,
                            std::vector<Witness>& out) {
  const size_t n = replay.log().events.size();
  // Stores grouped by (region, alloc_base), logged stores included — the
  // tear is about object coverage, not logging.
  std::map<std::pair<int, uint64_t>, std::vector<size_t>> by_region_obj;
  for (size_t u = 0; u < replay.units().size(); ++u) {
    const StoreUnit& s = replay.units()[u];
    if (s.region < 0 || s.alloc_base == 0)
      continue;
    by_region_obj[{s.region, s.alloc_base}].push_back(u);
  }

  // Completed regions in end order; last completed sibling per depth,
  // clearing deeper entries on each completion (a completed region at depth
  // d invalidates any remembered deeper region — it belongs to an earlier
  // subtree).
  std::vector<size_t> completed;
  for (size_t r = 0; r < replay.regions().size(); ++r)
    if (replay.regions()[r].end_event != kNoEvent) completed.push_back(r);
  std::sort(completed.begin(), completed.end(), [&](size_t a, size_t b) {
    return replay.regions()[a].end_event < replay.regions()[b].end_event;
  });

  std::map<size_t, size_t> last_at_depth;
  for (size_t cur : completed) {
    const RegionInfo& ci = replay.regions()[cur];
    for (auto it = last_at_depth.upper_bound(ci.depth);
         it != last_at_depth.end();)
      it = last_at_depth.erase(it);
    auto prev_it = last_at_depth.find(ci.depth);
    const size_t prev = prev_it == last_at_depth.end() ? SIZE_MAX
                                                       : prev_it->second;
    last_at_depth[ci.depth] = cur;
    if (prev == SIZE_MAX) continue;
    const RegionInfo& pi = replay.regions()[prev];
    if (pi.parent != ci.parent) continue;
    if (pi.kind == kRegionStrand || ci.kind == kRegionStrand) continue;

    // Objects written in both regions with disjoint byte coverage.
    for (const auto& [key, prev_units] : by_region_obj) {
      if (key.first != static_cast<int>(prev)) continue;
      auto cur_it = by_region_obj.find({static_cast<int>(cur), key.second});
      if (cur_it == by_region_obj.end()) continue;
      const std::vector<size_t>& cur_units = cur_it->second;
      if (unions_overlap(range_union(replay, prev_units),
                         range_union(replay, cur_units)))
        continue;
      // Crash right after the current region's first store to the object:
      // is any previous-region store already durable, exposing a state
      // neither region's recovery path owns?
      const size_t first_store = replay.units()[cur_units.front()].event;
      const size_t p = replay.crash_point_after(first_store, n);
      if (p == kNoEvent) continue;
      bool prev_durable = false;
      for (size_t u : prev_units)
        prev_durable = prev_durable || replay.units()[u].durable_by(p);
      if (!prev_durable) continue;
      Witness w;
      w.rule = "crash.cross-region-tear";
      for (size_t u : prev_units) add_culprit(w.culprits, replay.units()[u].loc);
      for (size_t u : cur_units) add_culprit(w.culprits, replay.units()[u].loc);
      out.push_back(std::move(w));
    }
  }
}

// Rule E (strict model): persist order inverted against program order.
void rule_order_inversion(const StoreReplay& replay,
                          std::vector<Witness>& out) {
  const size_t n = replay.log().events.size();
  for (size_t su = 0; su < replay.units().size(); ++su) {
    const StoreUnit& s = replay.units()[su];
    if (s.logged || !s.loc.valid()) continue;
    if (s.staged_at != kNoEvent || s.durable_at != kNoEvent) continue;
    if (s.overwritten_at != kNoEvent) continue;
    for (size_t tu = 0; tu < replay.units().size(); ++tu) {
      const StoreUnit& t = replay.units()[tu];
      if (t.event <= s.event || t.durable_at == kNoEvent) continue;
      const size_t p = replay.crash_point_after(t.durable_at, n);
      if (p == kNoEvent) continue;
      Witness w;
      w.rule = "crash.order-inversion";
      add_culprit(w.culprits, s.loc);
      out.push_back(std::move(w));
      break;  // one inversion witness per store suffices
    }
  }
}

// Rule F: store still dirty in cache after its region completed.
void rule_region_exit_unflushed(const StoreReplay& replay,
                                std::vector<Witness>& out) {
  const size_t n = replay.log().events.size();
  for (size_t r = 0; r < replay.regions().size(); ++r) {
    const RegionInfo& ri = replay.regions()[r];
    if (ri.kind == kRegionStrand || ri.end_event == kNoEvent) continue;
    const size_t p = replay.crash_point_after(ri.end_event, n);
    if (p == kNoEvent) continue;
    for (size_t u = 0; u < replay.units().size(); ++u) {
      const StoreUnit& s = replay.units()[u];
      if (s.logged || !s.loc.valid()) continue;
      if (!replay.region_within(s.region, static_cast<int>(r))) continue;
      if (!s.dirty_at(p)) continue;
      if (s.overwritten_at != kNoEvent && s.overwritten_at < p) continue;
      Witness w;
      w.rule = "crash.region-exit-unflushed";
      add_culprit(w.culprits, s.loc);
      out.push_back(std::move(w));
    }
  }
}

}  // namespace

std::vector<Witness> analyze_log(const EventLog& log, PersistencyModel model) {
  return analyze_log(StoreReplay(log), model);
}

std::vector<Witness> analyze_log(const StoreReplay& replay,
                                 PersistencyModel model) {
  std::vector<Witness> out;
  rule_rollback_exposure(replay, out);
  rule_unfenced_boundary(replay, out);
  rule_torn_fence_group(replay, out);
  rule_cross_region_tear(replay, out);
  if (model == PersistencyModel::kStrict) rule_order_inversion(replay, out);
  rule_region_exit_unflushed(replay, out);
  return out;
}

}  // namespace deepmc::crash
