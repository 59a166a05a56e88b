#include "core/static_checker.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <string_view>

#include "obs/metrics.h"
#include "obs/tracer.h"
#include "support/faultpoint.h"
#include "support/str.h"

namespace deepmc::core {

namespace {

obs::Counter& checker_prepares() {
  static obs::Counter c = obs::registry().counter(
      "checker.prepares_total", obs::Volatility::kStable,
      "analysis builds (call graph + DSA + trace collector)");
  return c;
}

obs::Counter& checker_roots() {
  static obs::Counter c = obs::registry().counter(
      "checker.roots_checked_total", obs::Volatility::kStable,
      "trace roots scanned by the rule checker");
  return c;
}

obs::Counter& checker_traces_scanned() {
  static obs::Counter c = obs::registry().counter(
      "checker.traces_scanned_total", obs::Volatility::kStable,
      "traces run through the Table 4/5 rule scanner");
  return c;
}

}  // namespace

using analysis::DSA;
using analysis::EventKind;
using analysis::MemRegion;
using analysis::TraceCollector;
using analysis::TraceEvent;
using ir::Function;
using ir::RegionKind;

namespace {

std::string func_of(const TraceEvent& ev) {
  if (ev.inst && ev.inst->parent() && ev.inst->parent()->parent())
    return ev.inst->parent()->parent()->name();
  return "?";
}

}  // namespace

// ===========================================================================
// Per-trace rule scanner
// ===========================================================================

/// One per root: scan() checks one path and adds its warnings to the
/// root's result, and the containers are cleared, not reallocated,
/// between paths.
struct StaticChecker::TraceScanner {
  const StaticChecker& checker;
  PersistencyModel model;
  CheckResult& result;

  struct PendingWarning {
    Warning w;
    size_t ev_idx;
    bool suppressible_by_empty_tx = false;
  };
  std::vector<PendingWarning> pending;

  struct WriteRec {
    MemRegion r;
    const TraceEvent* ev = nullptr;
    size_t ev_idx = 0;
    bool flushed = false;
    bool checked = false;
    bool in_region = false;
  };
  struct FlushRec {
    MemRegion r;
    const TraceEvent* ev = nullptr;
    size_t ev_idx = 0;
    bool fenced = false;
    bool redirtied = false;
    bool in_region = false;
  };
  struct TxAddRec {
    MemRegion r;
    const TraceEvent* ev = nullptr;
  };
  struct Frame {
    RegionKind kind;
    const TraceEvent* begin = nullptr;
    size_t begin_idx = 0;
    std::vector<size_t> writes;   ///< indices into writes_
    std::vector<TxAddRec> txadds;
    /// written byte offsets per object; empty set = inexact (whole object)
    std::map<const analysis::DSNode*, std::set<uint64_t>> objects_written;
    std::set<const analysis::DSNode*> objects_flushed;    ///< since last fence
    std::set<const analysis::DSNode*> objects_persisted;  ///< flushed + fenced
    const TraceEvent* first_flush = nullptr;
    size_t flush_count = 0;
    bool has_unfenced_flush = false;
  };
  struct SiblingSummary {
    /// written byte offsets per object; empty set = inexact (whole object)
    std::map<const analysis::DSNode*, std::set<uint64_t>> objects_written;
    bool valid = false;
  };

  std::vector<WriteRec> writes_;
  std::vector<FlushRec> flushes_;
  std::vector<Frame> frames_;
  // Last completed region summary per nesting depth, for the
  // consecutive-regions rules.
  std::map<size_t, SiblingSummary> last_sibling_;
  std::map<size_t, bool> awaiting_fence_after_end_;
  std::vector<size_t> writes_since_fence_;  ///< outside-region writes

  TraceScanner(const StaticChecker& c, CheckResult& r)
      : checker(c), model(c.model()), result(r) {}

  /// CheckResult::add keeps the first warning per (rule, file, line), so
  /// one the result already holds is dropped before it is built.
  [[nodiscard]] bool reported(std::string_view rule,
                              const TraceEvent& ev) const {
    return result.contains(rule, ev.loc());
  }

  void emit(std::string_view rule, BugCategory cat, const TraceEvent& ev,
            std::string_view msg, size_t ev_idx, bool suppressible = false) {
    if (reported(rule, ev)) return;
    Warning w;
    w.rule = rule;
    w.category = cat;
    w.model = model;
    w.loc = ev.loc();
    w.function = func_of(ev);
    w.message = msg;
    pending.push_back({std::move(w), ev_idx, suppressible});
  }

  /// Whole-object byte coverage test for the field-sensitivity rule: do
  /// the writes to `node` so far cover every field of its struct type?
  [[nodiscard]] bool all_fields_written(const ir::StructType* st,
                                        const analysis::DSNode* node) const {
    for (size_t i = 0; i < st->field_count(); ++i) {
      const uint64_t lo = st->field_offset(i);
      const uint64_t hi = lo + st->field(i)->size();
      bool covered = false;
      for (const WriteRec& rec : writes_) {
        const MemRegion& w = rec.r;
        if (w.node != node) continue;
        if (!w.exact) return true;  // conservative: assume covered
        if (w.offset <= lo && hi <= w.offset + w.size) {
          covered = true;
          break;
        }
      }
      if (!covered) return false;
    }
    return true;
  }

  // --- event handlers -------------------------------------------------------

  void on_store(const TraceEvent& ev, size_t idx) {
    if (!ev.persistent || !ev.region.valid()) return;
    WriteRec rec;
    rec.r = ev.region;
    rec.ev = &ev;
    rec.ev_idx = idx;
    rec.in_region = !frames_.empty();
    writes_.push_back(rec);
    const size_t widx = writes_.size() - 1;
    for (Frame& f : frames_) {
      f.writes.push_back(widx);
      auto& offsets = f.objects_written[ev.region.node];
      if (ev.region.exact)
        offsets.insert(ev.region.offset);
      else
        offsets.clear();  // inexact: may touch any field
    }
    if (frames_.empty()) writes_since_fence_.push_back(widx);
    // A store re-dirties any earlier flush over the same range.
    for (FlushRec& fl : flushes_)
      if (fl.r.overlaps(ev.region)) fl.redirtied = true;
  }

  void on_txadd(const TraceEvent& ev, size_t) {
    if (!ev.persistent || !ev.region.valid()) return;
    if (!frames_.empty()) frames_.back().txadds.push_back({ev.region, &ev});
  }

  void on_flush(const TraceEvent& ev, size_t idx) {
    if (!ev.region.valid()) return;
    // Only flushes of persistent regions are persistence-relevant.
    if (!ev.persistent) return;

    // Mark covered writes as flushed.
    bool any_prior_write = false;
    for (WriteRec& w : writes_) {
      if (ev.region.covers(w.r)) w.flushed = true;
      if (w.r.overlaps(ev.region)) any_prior_write = true;
    }

    // Rule perf.redundant-flush: an earlier un-redirtied flush overlaps.
    bool redundant = false;
    for (const FlushRec& fl : flushes_) {
      if (!fl.redirtied && fl.r.overlaps(ev.region)) {
        redundant = true;
        break;
      }
    }

    if (redundant) {
      emit("perf.redundant-flush", BugCategory::kMultipleFlushes, ev,
           "redundant write-back: this range was already flushed and not "
           "modified since",
           idx, /*suppressible=*/true);
    } else if (!any_prior_write) {
      emit("perf.flush-unmodified", BugCategory::kFlushUnmodified, ev,
           "flush of data with no preceding write (writing back unmodified "
           "data)",
           idx, /*suppressible=*/true);
    } else if (checker.opts_.field_sensitive && ev.region.exact &&
               ev.region.offset == 0 && ev.region.node->type() &&
               ev.region.node->type()->is_struct() &&
               ev.region.size >= ev.region.node->type()->size()) {
      // Whole-object flush: warn when only a strict subset of fields was
      // written (paper Figure 5; needs DSA field sensitivity).
      const auto* st = static_cast<const ir::StructType*>(
          ev.region.node->type());
      if (st->field_count() >= 2 &&
          !all_fields_written(st, ev.region.node)) {
        emit("perf.flush-unmodified", BugCategory::kFlushUnmodified, ev,
             "flushing entire object although only some fields were "
             "modified",
             idx, /*suppressible=*/true);
      }
    }

    // Rule perf.persist-same-object: an object persisted (flushed AND
    // fenced) earlier in the same transaction is flushed again — the
    // updates should have been batched into one persist at commit.
    // Multiple flushes batched under a single barrier are fine (that is
    // the whole point of epochs).
    if (!redundant && !frames_.empty()) {
      Frame& f = frames_.back();
      if (f.objects_persisted.count(ev.region.node)) {
        emit("perf.persist-same-object", BugCategory::kPersistSameObjectInTx,
             ev,
             "object persisted multiple times within one transaction; "
             "coalesce into a single persist at commit",
             idx, /*suppressible=*/true);
      }
      f.objects_flushed.insert(ev.region.node);
    }

    FlushRec rec;
    rec.r = ev.region;
    rec.ev = &ev;
    rec.ev_idx = idx;
    rec.in_region = !frames_.empty();
    flushes_.push_back(rec);
    if (!frames_.empty()) {
      Frame& f = frames_.back();
      if (!f.first_flush) f.first_flush = &ev;
      ++f.flush_count;
      f.has_unfenced_flush = true;
    }
  }

  void on_fence(const TraceEvent& ev, size_t idx) {
    // Strict-order checks on the writes this barrier makes durable.
    // They apply to writes outside any region: region-managed writes are
    // governed by the region rules (logging, commit-time flush).
    // Only writes that were flushed become durable at this barrier;
    // unflushed ones are the unflushed-write rule's concern.
    size_t flushed_count = 0;
    for (size_t widx : writes_since_fence_)
      if (writes_[widx].flushed) ++flushed_count;
    if (flushed_count >= 2 && !reported("strict.multiple-writes", ev)) {
      emit("strict.multiple-writes", BugCategory::kMultipleWritesAtOnce, ev,
           strformat("%zu writes made durable by a single persist barrier; "
                     "the %s model requires one barrier per persist",
                     flushed_count, model_name(model)),
           idx);
    }
    for (size_t widx : writes_since_fence_) {
      WriteRec& w = writes_[widx];
      if (!w.flushed && !w.checked) {
        emit("strict.unflushed-write", BugCategory::kUnflushedWrite, *w.ev,
             "write reached a persist barrier without a cache-line flush",
             idx);
      }
      w.checked = true;
    }
    writes_since_fence_.clear();

    for (FlushRec& fl : flushes_) fl.fenced = true;
    for (Frame& f : frames_) {
      f.has_unfenced_flush = false;
      f.objects_persisted.insert(f.objects_flushed.begin(),
                                 f.objects_flushed.end());
      f.objects_flushed.clear();
    }
    for (auto& [depth, awaiting] : awaiting_fence_after_end_)
      awaiting = false;
  }

  void on_begin(const TraceEvent& ev, size_t idx) {
    // strict.missing-barrier: unfenced flushes outside regions when a new
    // transaction starts (paper Figure 3, NVM-Direct nvm_create_region).
    for (const FlushRec& fl : flushes_) {
      if (!fl.fenced && !fl.in_region) {
        emit("strict.missing-barrier", BugCategory::kMissingBarrier, *fl.ev,
             "cache-line flush is not followed by a persist barrier before "
             "the next transaction begins",
             idx);
      }
    }
    // epoch.missing-barrier: consecutive sibling regions without a barrier
    // between them.
    const size_t depth = frames_.size();
    auto aw = awaiting_fence_after_end_.find(depth);
    if (aw != awaiting_fence_after_end_.end() && aw->second &&
        ev.region_kind != RegionKind::kStrand) {
      emit("epoch.missing-barrier", BugCategory::kMissingBarrier, ev,
           "no persist barrier between consecutive epochs/transactions",
           idx);
      aw->second = false;
    }

    Frame f;
    f.kind = ev.region_kind;
    f.begin = &ev;
    f.begin_idx = idx;
    frames_.push_back(std::move(f));
  }

  void on_end(const TraceEvent& ev, size_t idx) {
    if (frames_.empty()) return;  // unbalanced markers: ignore
    Frame f = std::move(frames_.back());
    frames_.pop_back();
    const size_t depth = frames_.size();

    // perf.empty-durable-tx: a durable transaction without persistent
    // writes. Suppresses the flush-unmodified warnings raised inside it —
    // they are the same symptom reported once, as in Table 1.
    if (f.kind == RegionKind::kTx && f.writes.empty()) {  // no persistent writes
      const TraceEvent& at = f.first_flush ? *f.first_flush : *f.begin;
      // Remove suppressible warnings raised inside this region.
      pending.erase(
          std::remove_if(pending.begin(), pending.end(),
                         [&](const PendingWarning& pw) {
                           return pw.suppressible_by_empty_tx &&
                                  pw.ev_idx >= f.begin_idx && pw.ev_idx < idx;
                         }),
          pending.end());
      emit("perf.empty-durable-tx", BugCategory::kEmptyDurableTx, at,
           "durable transaction contains no persistent write; its persist "
           "operations are unnecessary",
           idx);
    }

    // Unflushed/unlogged writes inside the region (strict: TX_ADD-style
    // logging or an explicit flush; epoch: a covering flush by epoch end).
    for (size_t widx : f.writes) {
      WriteRec& w = writes_[widx];
      if (w.checked) continue;
      w.checked = true;
      if (w.flushed) continue;
      bool logged = false;
      for (const TxAddRec& ta : f.txadds)
        if (ta.r.covers(w.r)) logged = true;
      for (const Frame& open : frames_)
        for (const TxAddRec& ta : open.txadds)
          if (ta.r.covers(w.r)) logged = true;
      if (!logged) {
        emit(model == PersistencyModel::kStrict ? "strict.unflushed-write"
                                                : "epoch.unflushed-write",
             BugCategory::kUnflushedWrite, *w.ev,
             "modified persistent data is neither logged nor flushed by the "
             "end of the enclosing region",
             idx);
      }
    }

    // perf.log-unmodified: logged (TX_ADD) but never written in the tx.
    for (const TxAddRec& ta : f.txadds) {
      bool written = false;
      for (size_t widx : f.writes)
        if (writes_[widx].r.overlaps(ta.r)) written = true;
      if (!written) {
        emit("perf.log-unmodified", BugCategory::kFlushUnmodified, *ta.ev,
             "object logged into the transaction but never modified "
             "(unnecessary logging and write-back)",
             idx);
      }
    }

    // epoch.missing-barrier-nested: an inner region ends while its flushes
    // have not been fenced (paper Figure 4, pmfs_block_symlink).
    if (depth > 0 && f.has_unfenced_flush) {
      emit("epoch.missing-barrier-nested", BugCategory::kMissingBarrierNested,
           f.first_flush ? *f.first_flush : ev,
           "nested transaction ends with unfenced flushes; inner "
           "transactions must persist before returning to the outer one",
           idx);
    }

    // model.semantic-mismatch: consecutive sibling regions writing to the
    // same persistent object (paper Figure 1: logically-atomic updates are
    // split across persists/epochs).
    if (f.kind != RegionKind::kStrand) {
      SiblingSummary& prev = last_sibling_[depth];
      if (prev.valid) {
        // The bug is an object's *initialization/update split across
        // regions*: the regions write DISJOINT field sets of the object
        // ("multiple epochs write to different fields of an object").
        // Regions re-writing overlapping fields are ordinary repeated
        // operations (queue pushes, log appends) and are not flagged.
        std::set<const analysis::DSNode*> shared;
        for (const auto& [n, offsets] : f.objects_written) {
          auto pit = prev.objects_written.find(n);
          if (pit == prev.objects_written.end()) continue;
          const std::set<uint64_t>& prev_offsets = pit->second;
          // Empty set means "inexact / whole object": overlaps everything.
          if (offsets.empty() || prev_offsets.empty()) continue;
          bool overlap = false;
          for (uint64_t o : offsets)
            if (prev_offsets.count(o)) overlap = true;
          if (!overlap) shared.insert(n);
        }
        if (!shared.empty()) {
          // Report at the first write in this region touching the shared
          // object — that is the line the paper's tables cite.
          const TraceEvent* at = f.begin;
          for (size_t widx : f.writes) {
            if (shared.count(writes_[widx].r.node)) {
              at = writes_[widx].ev;
              break;
            }
          }
          emit("model.semantic-mismatch", BugCategory::kSemanticMismatch, *at,
               "consecutive epochs/transactions write to the same persistent "
               "object; the object's updates are not made durable atomically",
               idx);
        }
      }
      prev.valid = true;
      prev.objects_written = f.objects_written;
    }
    // A barrier is owed at this boundary only if the region's persistence
    // activity was not already fenced at its end ("a persist barrier P at
    // the end of E1", Table 4).
    awaiting_fence_after_end_[depth] = f.has_unfenced_flush;
    // Summaries of deeper levels are no longer "consecutive".
    for (auto it = last_sibling_.begin(); it != last_sibling_.end(); ++it)
      if (it->first > depth) it->second.valid = false;
  }

  void finish(size_t end_idx) {
    // Trace-end checks: unflushed writes and unfenced flushes outside
    // regions (strict.missing-barrier at the flush, strict.unflushed-write
    // at the write).
    for (WriteRec& w : writes_) {
      if (w.checked || w.in_region) continue;
      w.checked = true;
      if (!w.flushed) {
        emit(model == PersistencyModel::kStrict ? "strict.unflushed-write"
                                                : "epoch.unflushed-write",
             BugCategory::kUnflushedWrite, *w.ev,
             "modified persistent data is never flushed (lost on crash)",
             end_idx);
      } else {
        // Flushed but never fenced: durability not guaranteed.
        bool fenced = false;
        for (const FlushRec& fl : flushes_)
          if (fl.fenced && fl.r.covers(w.r)) fenced = true;
        if (!fenced) {
          emit("strict.missing-barrier", BugCategory::kMissingBarrier, *w.ev,
               "modified persistent data is flushed but no persist barrier "
               "follows; durability is not guaranteed",
               end_idx);
        }
      }
    }
  }

  /// Check one path and add its warnings to the result.
  void scan(std::span<const TraceEvent> trace) {
    pending.clear();
    writes_.clear();
    flushes_.clear();
    frames_.clear();
    last_sibling_.clear();
    awaiting_fence_after_end_.clear();
    writes_since_fence_.clear();
    for (size_t i = 0; i < trace.size(); ++i) {
      const TraceEvent& ev = trace[i];
      switch (ev.kind) {
        case EventKind::kStore:
          on_store(ev, i);
          break;
        case EventKind::kTxAdd:
          on_txadd(ev, i);
          break;
        case EventKind::kFlush:
          on_flush(ev, i);
          break;
        case EventKind::kFence:
          on_fence(ev, i);
          break;
        case EventKind::kTxBegin:
          on_begin(ev, i);
          break;
        case EventKind::kTxEnd:
          on_end(ev, i);
          break;
        case EventKind::kLoad:
        case EventKind::kPmAlloc:
          break;
      }
    }
    finish(trace.size());
    for (PendingWarning& pw : pending) result.add(std::move(pw.w));
  }
};

// ===========================================================================
// StaticChecker
// ===========================================================================

StaticChecker::StaticChecker(const ir::Module& module, PersistencyModel model,
                             Options opts)
    : module_(module), model_(model), opts_(opts) {}

StaticChecker::~StaticChecker() = default;

void StaticChecker::ensure_analysis() {
  if (dsa_) return;
  obs::Span span("checker.prepare", "checker");
  if (obs::enabled()) checker_prepares().inc();
  DSA::Options dopts;
  dopts.field_sensitive = opts_.field_sensitive;
  // DSA runs serially inside this call, so one budget for the whole build
  // is deterministic; the pointer is dropped by DSA::run() on return.
  support::Budget dsa_budget("dsa.steps", opts_.dsa_step_budget);
  dsa_budget.set_cancel(opts_.cancel);
  dopts.step_budget = &dsa_budget;
  dsa_ = std::make_unique<DSA>(module_, dopts);
  dsa_->run();
  collector_ = std::make_unique<TraceCollector>(module_, *dsa_, opts_.trace);
}

void StaticChecker::prepare() { ensure_analysis(); }

std::vector<const Function*> StaticChecker::trace_roots() const {
  // Roots: functions not called from within the module. Callees are
  // covered by trace inlining; checking them separately out of context
  // would double-report and lose caller-provided persistence facts.
  std::set<const Function*> called;
  const auto& cg = dsa_->callgraph();
  for (const auto& f : module_.functions())
    for (const Function* callee : cg.callees(f.get())) called.insert(callee);

  std::vector<const Function*> roots;
  for (const auto& f : module_.functions())
    if (!f->is_declaration() && !called.count(f.get()))
      roots.push_back(f.get());
  if (roots.empty()) {
    for (const auto& f : module_.functions())
      if (!f->is_declaration()) roots.push_back(f.get());
  }
  return roots;
}

support::Budget StaticChecker::make_root_budget() const {
  support::Budget b("trace.steps", opts_.trace_step_budget);
  b.set_cancel(opts_.cancel);
  return b;
}

CheckResult StaticChecker::check_root(const Function& f) const {
  obs::Span span("root.check", "checker", obs::span_arg("root", f.name()));
  DEEPMC_FAULTPOINT("checker.root");
  if (obs::enabled()) checker_roots().inc();
  CheckResult result;
  check_traces(f, result);
  return result;
}

void StaticChecker::check_traces(const Function& f, CheckResult& result) const {
  // One fresh meter per root: the trip point is a function of this root's
  // walk alone, never of sibling roots or scheduling.
  support::Budget budget = make_root_budget();
  budget.check_cancel();
  // Each path is scanned as the walk finishes it, in the walk's buffer.
  TraceScanner scanner(*this, result);
  const size_t paths = collector_->walk(
      f, &budget,
      [&](std::span<const TraceEvent> path) { scanner.scan(path); });
  if (obs::enabled()) checker_traces_scanned().inc(paths);
  result.traces_checked += paths;
  ++result.functions_checked;
}

CheckResult StaticChecker::run() {
  prepare();
  CheckResult result;
  for (const Function* f : trace_roots()) check_traces(*f, result);
  result.fold_empty_tx_shadows();
  result.sort();
  return result;
}

CheckResult StaticChecker::check_function(const Function& f) {
  ensure_analysis();
  CheckResult result;
  check_traces(f, result);
  result.fold_empty_tx_shadows();
  result.sort();
  return result;
}

CheckResult check_module(const ir::Module& module, PersistencyModel model,
                         StaticChecker::Options opts) {
  StaticChecker checker(module, model, opts);
  return checker.run();
}

}  // namespace deepmc::core
