#include "interp/instrumenter.h"

#include <deque>
#include <map>
#include <set>

#include "obs/metrics.h"

namespace deepmc::interp {

using namespace ir;

namespace {

/// Forward dataflow: for each basic block, can execution reach its entry
/// with a region (tx/epoch/strand) open? Intra-block region state is then
/// recomputed while instrumenting.
std::map<const BasicBlock*, bool> region_entry_state(const Function& f) {
  std::map<const BasicBlock*, bool> in_region;
  for (const auto& bb : f.blocks()) in_region[bb.get()] = false;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& bb : f.blocks()) {
      bool depth_open = in_region[bb.get()];
      int depth = depth_open ? 1 : 0;
      for (const auto& inst : bb->instructions()) {
        if (inst->opcode() == Opcode::kTxBegin) ++depth;
        else if (inst->opcode() == Opcode::kTxEnd && depth > 0) --depth;
      }
      const bool out = depth > 0;
      for (BasicBlock* succ : bb->successors()) {
        if (out && !in_region[succ]) {
          in_region[succ] = true;
          changed = true;
        }
      }
    }
  }
  return in_region;
}

/// Functions that contain region markers (`seeds`) or are (transitively)
/// called from inside a region (`reached`). Seeds are instrumented with
/// intra-function region-depth tracking; reached callees are instrumented
/// throughout (they only execute inside regions).
struct RegionFunctions {
  std::set<const Function*> seeds;
  std::set<const Function*> reached;
};

RegionFunctions region_functions(const Module& m) {
  std::set<const Function*> seeds;
  for (const auto& f : m.functions()) {
    for (const auto& bb : f->blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (inst->opcode() == Opcode::kTxBegin) {
          seeds.insert(f.get());
          break;
        }
      }
    }
  }
  // Propagate to callees: a call inside an open region (or anywhere in an
  // already-region function's body) pulls the callee in. Conservative:
  // any callee of a region function is instrumented.
  std::set<const Function*> result = seeds;
  std::deque<const Function*> work(seeds.begin(), seeds.end());
  while (!work.empty()) {
    const Function* f = work.front();
    work.pop_front();
    for (const auto& bb : f->blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (inst->opcode() != Opcode::kCall) continue;
        const auto* call = static_cast<const CallInst*>(inst.get());
        if (const Function* callee = m.find_function(call->callee())) {
          if (!callee->is_declaration() && result.insert(callee).second)
            work.push_back(callee);
        }
      }
    }
  }
  return RegionFunctions{std::move(seeds), std::move(result)};
}

/// Instrument unless the pointer provably targets volatile memory. The
/// paper's DSA filter exists to skip non-NVM objects; when provenance is
/// unknown (laundered or externally-produced pointers) the sound choice is
/// to instrument — the runtime discards events outside the PM range anyway.
bool maybe_persistent(const analysis::DSA& dsa, const Value* ptr) {
  analysis::DSCell c = dsa.cell_for(ptr);
  if (c.null()) return true;  // unknown provenance
  if (c.node->persistent()) return true;
  if (c.node->has(analysis::DSNode::kStack)) return false;
  return true;  // unknown / incomplete
}

}  // namespace

InstrumenterStats instrument_module(Module& module, const analysis::DSA& dsa,
                                    InstrumenterOptions opts) {
  InstrumenterStats stats;
  TypeContext& types = module.types();
  const Type* void_ty = types.void_type();
  const Type* i64 = types.i64();
  const Type* ptr = types.opaque_ptr();

  // Declare the runtime hooks once.
  for (const char* name : {kRtAlloc, kRtWrite, kRtRead}) {
    if (!module.find_function(name))
      module.create_function(name, void_ty, {{"p", ptr}, {"size", i64}});
  }

  const RegionFunctions rf = region_functions(module);

  for (const auto& f : module.functions()) {
    if (f->is_declaration()) continue;
    const bool has_own_markers = rf.seeds.count(f.get()) != 0;
    const bool reached_from_region = rf.reached.count(f.get()) != 0;
    if (!opts.whole_program && !reached_from_region) {
      // Count skipped persistent accesses for the stats.
      for (const auto& bb : f->blocks())
        for (const auto& inst : bb->instructions())
          if (inst->opcode() == Opcode::kStore ||
              inst->opcode() == Opcode::kLoad)
            ++stats.accesses_skipped_outside_regions;
      continue;
    }
    const auto entry_state = region_entry_state(*f);

    for (const auto& bb : f->blocks()) {
      // Walk by index; insertions shift positions.
      int depth = entry_state.at(bb.get()) ? 1 : 0;
      for (size_t i = 0; i < bb->size(); ++i) {
        Instruction* inst = bb->instructions()[i].get();
        const Opcode op = inst->opcode();
        if (op == Opcode::kTxBegin) {
          ++depth;
          continue;
        }
        if (op == Opcode::kTxEnd) {
          if (depth > 0) --depth;
          continue;
        }
        auto make_size = [&](uint64_t n) -> Value* {
          return f->own(std::make_unique<Constant>(i64, static_cast<int64_t>(n)));
        };
        auto insert_hook = [&](const char* hook, Value* p, uint64_t size) {
          auto call = std::make_unique<CallInst>(
              void_ty, hook, std::vector<Value*>{p, make_size(size)},
              std::string{});
          call->set_loc(inst->loc());
          bb->insert(i, std::move(call));
          ++i;  // skip over the inserted hook
        };

        // Allocations are always registered — the runtime needs to know
        // where persistent objects live regardless of regions.
        if (op == Opcode::kPmAlloc) {
          auto* a = static_cast<PmAllocInst*>(inst);
          auto call = std::make_unique<CallInst>(
              void_ty, kRtAlloc,
              std::vector<Value*>{a, make_size(a->allocated_type()->size())},
              std::string{});
          call->set_loc(inst->loc());
          bb->insert(i + 1, std::move(call));
          ++i;
          ++stats.allocs_instrumented;
          continue;
        }

        // Inside a marker-containing function, instrument only between the
        // markers; a callee reached from a region runs entirely inside one.
        const bool active = opts.whole_program || depth > 0 ||
                            (reached_from_region && !has_own_markers);
        if (!active) {
          if (op == Opcode::kStore || op == Opcode::kLoad)
            ++stats.accesses_skipped_outside_regions;
          continue;
        }

        if (op == Opcode::kStore) {
          auto* s = static_cast<StoreInst*>(inst);
          if (!maybe_persistent(dsa, s->pointer())) {
            ++stats.accesses_skipped_not_persistent;
            continue;
          }
          insert_hook(kRtWrite, s->pointer(), s->value()->type()->size());
          ++stats.writes_instrumented;
        } else if (op == Opcode::kMemSet) {
          auto* ms = static_cast<MemSetInst*>(inst);
          if (!maybe_persistent(dsa, ms->pointer())) {
            ++stats.accesses_skipped_not_persistent;
            continue;
          }
          uint64_t size = 8;
          if (auto* c = dynamic_cast<Constant*>(ms->size()))
            size = static_cast<uint64_t>(c->value());
          insert_hook(kRtWrite, ms->pointer(), size);
          ++stats.writes_instrumented;
        } else if (op == Opcode::kLoad) {
          auto* l = static_cast<LoadInst*>(inst);
          if (!maybe_persistent(dsa, l->pointer())) {
            ++stats.accesses_skipped_not_persistent;
            continue;
          }
          insert_hook(kRtRead, l->pointer(), l->type()->size());
          ++stats.reads_instrumented;
        }
      }
    }
  }
  if (obs::enabled()) {
    static obs::Counter hooks = obs::registry().counter(
        "interp.instrumented_calls_total", obs::Volatility::kStable,
        "runtime hook calls inserted by the instrumenter");
    hooks.inc(stats.allocs_instrumented + stats.writes_instrumented +
              stats.reads_instrumented);
  }
  return stats;
}

}  // namespace deepmc::interp
