#include "analysis/trace.h"

#include <map>

#include "obs/metrics.h"
#include "obs/tracer.h"
#include "support/faultpoint.h"

namespace deepmc::analysis {

using namespace ir;

namespace {

// Path exploration is bounded and deterministic per root, so all trace
// metrics are stable across runs and --jobs values.

obs::Counter& trace_collections() {
  static obs::Counter c = obs::registry().counter(
      "trace.collections_total", obs::Volatility::kStable,
      "completed TraceCollector walks (one per root walked)");
  return c;
}

obs::Counter& traces_collected() {
  static obs::Counter c = obs::registry().counter(
      "trace.traces_total", obs::Volatility::kStable,
      "bounded paths walked");
  return c;
}

obs::Counter& trace_events() {
  static obs::Counter c = obs::registry().counter(
      "trace.events_total", obs::Volatility::kStable,
      "persistence-relevant events across all traces");
  return c;
}

obs::Histogram& events_per_trace() {
  static obs::Histogram h = obs::registry().histogram(
      "trace.events_per_trace", obs::Volatility::kStable,
      "events per collected trace", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  return h;
}

}  // namespace

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kStore: return "store";
    case EventKind::kLoad: return "load";
    case EventKind::kFlush: return "flush";
    case EventKind::kFence: return "fence";
    case EventKind::kTxAdd: return "tx.add";
    case EventKind::kTxBegin: return "tx.begin";
    case EventKind::kTxEnd: return "tx.end";
    case EventKind::kPmAlloc: return "pm.alloc";
  }
  return "?";
}

namespace {

uint64_t const_or(const Value* v, uint64_t fallback) {
  if (const auto* c = dynamic_cast<const Constant*>(v))
    return static_cast<uint64_t>(c->value());
  return fallback;
}

}  // namespace

struct TraceCollector::Walker {
  const ir::Module& module;
  const DSA& dsa;
  const TraceOptions& opts;
  // Shared with spliced sub-walkers so callee exploration draws from the
  // same per-invocation meter; null when the caller sets no budget.
  support::Budget* budget;
  const PathVisitor& visit;
  size_t paths = 0;
  std::vector<TraceEvent> events;
  // Per-path block visit counts (loop bound) — indexed by block pointer.
  std::map<const BasicBlock*, int> visits;

  Walker(const ir::Module& m, const DSA& d, const TraceOptions& o,
         support::Budget* b, const PathVisitor& v)
      : module(m), dsa(d), opts(o), budget(b), visit(v) {}

  [[nodiscard]] bool budget_left() const { return paths < opts.max_paths; }

  void end_path() {
    ++paths;
    visit(events);
  }

  void emit_mem(EventKind kind, const Instruction* inst, const Value* ptr,
                uint64_t size) {
    TraceEvent e;
    e.kind = kind;
    e.inst = inst;
    e.region = dsa.region_for(ptr, size);
    e.persistent = e.region.valid() && e.region.node->persistent();
    events.push_back(e);
  }

  void emit_marker(EventKind kind, const Instruction* inst, RegionKind rk) {
    TraceEvent e;
    e.kind = kind;
    e.inst = inst;
    e.region_kind = rk;
    e.persistent = true;  // region markers always matter to the checker
    events.push_back(e);
  }

  /// Execute the instructions of `bb` starting at `idx`; recurse into
  /// successors / callee variants. `depth` is the call-inlining depth.
  void exec_block(const BasicBlock* bb, size_t idx, int depth) {
    if (!budget_left()) return;
    const auto& insts = bb->instructions();
    for (size_t i = idx; i < insts.size(); ++i) {
      DEEPMC_FAULTPOINT("trace.step");
      if (budget != nullptr) budget->charge();
      const Instruction* inst = insts[i].get();
      switch (inst->opcode()) {
        case Opcode::kStore: {
          const auto* s = static_cast<const StoreInst*>(inst);
          emit_mem(EventKind::kStore, inst, s->pointer(),
                   s->value()->type()->size());
          break;
        }
        case Opcode::kLoad: {
          const auto* l = static_cast<const LoadInst*>(inst);
          emit_mem(EventKind::kLoad, inst, l->pointer(), l->type()->size());
          break;
        }
        case Opcode::kMemSet: {
          const auto* m = static_cast<const MemSetInst*>(inst);
          emit_mem(EventKind::kStore, inst, m->pointer(),
                   const_or(m->size(), 0));
          break;
        }
        case Opcode::kMemCpy: {
          const auto* m = static_cast<const MemCpyInst*>(inst);
          emit_mem(EventKind::kLoad, inst, m->source(),
                   const_or(m->size(), 0));
          emit_mem(EventKind::kStore, inst, m->dest(), const_or(m->size(), 0));
          break;
        }
        case Opcode::kFlush:
        case Opcode::kPersist: {
          const auto* f = static_cast<const FlushInst*>(inst);
          emit_mem(EventKind::kFlush, inst, f->pointer(),
                   const_or(f->size(), 8));
          if (f->includes_fence()) {
            TraceEvent e;
            e.kind = EventKind::kFence;
            e.inst = inst;
            e.persistent = true;
            events.push_back(e);
          }
          break;
        }
        case Opcode::kFence: {
          TraceEvent e;
          e.kind = EventKind::kFence;
          e.inst = inst;
          e.persistent = true;
          events.push_back(e);
          break;
        }
        case Opcode::kTxAdd: {
          const auto* t = static_cast<const TxAddInst*>(inst);
          emit_mem(EventKind::kTxAdd, inst, t->pointer(),
                   const_or(t->size(), 8));
          break;
        }
        case Opcode::kTxBegin:
          emit_marker(EventKind::kTxBegin, inst,
                      static_cast<const TxBeginInst*>(inst)->region_kind());
          break;
        case Opcode::kTxEnd:
          emit_marker(EventKind::kTxEnd, inst,
                      static_cast<const TxEndInst*>(inst)->region_kind());
          break;
        case Opcode::kPmAlloc:
          emit_mem(EventKind::kPmAlloc, inst, inst,
                   static_cast<const PmAllocInst*>(inst)
                       ->allocated_type()
                       ->size());
          break;
        case Opcode::kCall: {
          const auto* c = static_cast<const CallInst*>(inst);
          const Function* callee = module.find_function(c->callee());
          if (callee && !callee->is_declaration() &&
              depth < opts.max_recursion) {
            // Walk the callee's paths, keep its first variants, and splice
            // each one, continuing with the rest of this block after each.
            std::vector<std::vector<TraceEvent>> variants;
            const PathVisitor keep = [&](std::span<const TraceEvent> path) {
              if (variants.size() < opts.max_callee_paths)
                variants.emplace_back(path.begin(), path.end());
            };
            Walker sub(module, dsa, opts, budget, keep);
            sub.walk_function(*callee, depth + 1);
            const size_t checkpoint = events.size();
            for (const auto& callee_events : variants) {
              events.insert(events.end(), callee_events.begin(),
                            callee_events.end());
              exec_block(bb, i + 1, depth);
              events.resize(checkpoint);
              if (!budget_left()) return;
            }
            if (sub.paths > 0) return;  // continuations handled above
          }
          break;
        }
        case Opcode::kRet:
          end_path();
          return;
        case Opcode::kBr: {
          const auto* br = static_cast<const BrInst*>(inst);
          if (!br->is_conditional()) {
            enter_block(br->true_target(), depth);
          } else {
            enter_block(br->true_target(), depth);
            if (budget_left()) enter_block(br->false_target(), depth);
          }
          return;
        }
        default:
          break;  // arithmetic, casts, geps, allocas: no events
      }
    }
    // Block without terminator (verifier would flag it): end the path.
    end_path();
  }

  void enter_block(const BasicBlock* bb, int depth) {
    int& count = visits[bb];
    if (count >= opts.max_loop_visits) return;  // loop bound: prune
    ++count;
    const size_t checkpoint = events.size();
    exec_block(bb, 0, depth);
    events.resize(checkpoint);
    --count;
  }

  void walk_function(const Function& f, int depth) {
    if (const BasicBlock* entry = f.entry()) enter_block(entry, depth);
  }
};

TraceCollector::TraceCollector(const ir::Module& module, const DSA& dsa,
                               TraceOptions opts)
    : module_(module), dsa_(dsa), opts_(opts) {}

size_t TraceCollector::walk(const Function& f, support::Budget* budget,
                            const PathVisitor& visit) const {
  obs::Span span("trace.collect", "analysis", {{"root", f.name()}});
  // Path sizes are published once the walk completes, so a walk cut
  // short by its budget counts nothing.
  std::vector<size_t> path_events;
  const PathVisitor counted = [&](std::span<const TraceEvent> path) {
    path_events.push_back(path.size());
    visit(path);
  };
  Walker w(module_, dsa_, opts_, budget, counted);
  w.walk_function(f, 0);
  if (obs::enabled()) {
    trace_collections().inc();
    traces_collected().inc(path_events.size());
    for (const size_t n : path_events) {
      trace_events().inc(n);
      events_per_trace().observe(n);
    }
  }
  return w.paths;
}

std::vector<Trace> TraceCollector::collect(const Function& f,
                                           support::Budget* budget) const {
  std::vector<Trace> traces;
  walk(f, budget, [&](std::span<const TraceEvent> path) {
    traces.push_back({&f, {path.begin(), path.end()}});
  });
  return traces;
}

}  // namespace deepmc::analysis
