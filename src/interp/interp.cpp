#include "interp/interp.h"

#include <algorithm>
#include <cstring>
#include <exception>

#include "interp/instrumenter.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "support/faultpoint.h"

namespace deepmc::interp {

using namespace ir;

namespace {

// Interpretation is deterministic (fixed step budget, no scheduling), so
// these counters are stable across runs and --jobs values.

obs::Counter& interp_runs() {
  static obs::Counter c = obs::registry().counter(
      "interp.runs_total", obs::Volatility::kStable,
      "interpreter entry points executed");
  return c;
}

obs::Counter& interp_steps() {
  static obs::Counter c = obs::registry().counter(
      "interp.steps_total", obs::Volatility::kStable,
      "instructions interpreted");
  return c;
}

obs::Counter& interp_traps() {
  static obs::Counter c = obs::registry().counter(
      "interp.traps_total", obs::Volatility::kStable,
      "interpreter runs ended by a trap (InterpError)");
  return c;
}

// Accounts interpreted steps (even when the run traps) without disturbing
// the InterpError propagation path.
class RunAccounting {
 public:
  explicit RunAccounting(const uint64_t& steps)
      : steps_(steps), start_(steps) {}
  ~RunAccounting() {
    if (!obs::enabled()) return;
    interp_runs().inc();
    interp_steps().inc(steps_ - start_);
    if (std::uncaught_exceptions() > 0) interp_traps().inc();
  }

 private:
  const uint64_t& steps_;
  uint64_t start_;
};

}  // namespace

Interpreter::Interpreter(const Module& module, pmem::PmPool& pool,
                         rt::RuntimeChecker* runtime, Options opts)
    : module_(module), pool_(&pool), rt_(runtime), opts_(opts) {}

uint64_t Interpreter::eval(const std::map<const Value*, uint64_t>& regs,
                           const Value* v) const {
  if (const auto* c = dynamic_cast<const Constant*>(v))
    return static_cast<uint64_t>(c->value());
  auto it = regs.find(v);
  if (it == regs.end())
    throw InterpError("use of undefined value %" + v->name());
  return it->second;
}

bool Interpreter::volatile_fits(uint64_t off, uint64_t size) const {
  const uint64_t limit = opts_.volatile_bytes;
  return off <= limit && size <= limit - off;
}

void Interpreter::check_access(uint64_t addr, uint64_t size,
                               bool store) const {
  if (addr < kVolatileBase) {
    pool_->check_range(addr, size);
  } else if (!volatile_fits(addr - kVolatileBase, size)) {
    throw InterpError(store ? "volatile store out of range"
                            : "volatile load out of range");
  }
}

void Interpreter::mem_write(uint64_t addr, const void* src, uint64_t size) {
  if (addr >= kVolatileBase) {
    check_access(addr, size, /*store=*/true);
    const uint64_t off = addr - kVolatileBase;
    if (off + size > volatile_mem_.size())
      volatile_mem_.resize(std::min<uint64_t>(
          opts_.volatile_bytes,
          std::max<uint64_t>(off + size, 2 * volatile_mem_.size())));
    std::memcpy(volatile_mem_.data() + off, src, size);
    return;
  }
  pool_->store(addr, src, size);
}

void Interpreter::mem_read(uint64_t addr, void* dst, uint64_t size) const {
  if (addr >= kVolatileBase) {
    check_access(addr, size, /*store=*/false);
    const uint64_t off = addr - kVolatileBase;
    // Bytes past the arena's end were never written and read as zero.
    const uint64_t have =
        off < volatile_mem_.size()
            ? std::min<uint64_t>(size, volatile_mem_.size() - off)
            : 0;
    if (have) std::memcpy(dst, volatile_mem_.data() + off, have);
    std::memset(static_cast<uint8_t*>(dst) + have, 0, size - have);
    return;
  }
  pool_->load(addr, dst, size);
}

uint64_t Interpreter::load_int(uint64_t addr, uint64_t size) const {
  uint64_t v = 0;
  if (size > 8) size = 8;
  mem_read(addr, &v, size);
  return v;
}

void Interpreter::store_int(uint64_t addr, uint64_t value, uint64_t size) {
  if (size > 8) size = 8;
  mem_write(addr, &value, size);
}

uint64_t Interpreter::gep_address(const std::map<const Value*, uint64_t>& regs,
                                  const GepInst* gep) const {
  const uint64_t base = eval(regs, gep->base());
  const uint64_t idx = eval(regs, gep->index());
  const auto* pt = dynamic_cast<const PointerType*>(gep->base()->type());
  const Type* pointee = pt && !pt->is_opaque() ? pt->pointee() : nullptr;
  if (const auto* st = dynamic_cast<const StructType*>(pointee)) {
    if (idx < st->field_count()) return base + st->field_offset(idx);
    throw InterpError("gep field index out of range in %" + gep->name());
  }
  if (const auto* at = dynamic_cast<const ArrayType*>(pointee))
    return base + idx * at->element()->size();
  if (pointee) return base + idx * pointee->size();
  return base + idx * 8;  // untyped pointer: index in 8-byte words
}

std::optional<uint64_t> Interpreter::run(const Function& f,
                                         std::vector<uint64_t> args) {
  obs::Span span("interp.run", "interp", {{"function", f.name()}});
  RunAccounting accounting(steps_);
  return exec_function(f, args, 0);
}

std::optional<uint64_t> Interpreter::run_main() {
  const Function* main = module_.find_function("main");
  if (!main) throw InterpError("module has no @main");
  return run(*main);
}

std::optional<uint64_t> Interpreter::exec_function(
    const Function& f, const std::vector<uint64_t>& args, uint64_t depth) {
  if (depth > opts_.max_call_depth) throw InterpError("call depth exceeded");
  if (f.is_declaration()) return 0;  // unknown external: no-op returning 0

  std::map<const Value*, uint64_t> regs;
  for (size_t i = 0; i < f.arg_count() && i < args.size(); ++i)
    regs[f.arg(i)] = args[i];

  const BasicBlock* bb = f.entry();
  size_t ip = 0;
  while (bb) {
    if (ip >= bb->size())
      throw InterpError("fell off the end of block " + bb->name());
    const Instruction* inst = bb->instructions()[ip].get();
    DEEPMC_FAULTPOINT("interp.step");
    if (++steps_ > opts_.max_steps) throw StepLimitReached(opts_.max_steps);
    if ((steps_ & 0xFFF) == 0) opts_.cancel.check();

    // Forward the instruction's source location to an attached event sink
    // before a persistence event it is about to cause, so recorded pool
    // events carry program coordinates (crash-state enumeration needs them
    // to name culprit stores/flushes).
    pmem::PmEventSink* sink = pool_->event_sink();
    auto note_loc = [&](uint64_t addr) {
      if (sink && addr < kVolatileBase) sink->on_source_loc(inst->loc());
    };

    switch (inst->opcode()) {
      case Opcode::kAlloca: {
        const auto* a = static_cast<const AllocaInst*>(inst);
        const uint64_t size = std::max<uint64_t>(a->allocated_type()->size(), 8);
        const uint64_t aligned = (volatile_bump_ + 7) / 8 * 8;
        if (!volatile_fits(aligned, size))
          throw InterpError("volatile memory exhausted");
        volatile_bump_ = aligned + size;
        regs[inst] = kVolatileBase + aligned;
        break;
      }
      case Opcode::kPmAlloc: {
        const auto* a = static_cast<const PmAllocInst*>(inst);
        regs[inst] = pool_->alloc(a->allocated_type()->size());
        break;
      }
      case Opcode::kPmFree: {
        const auto* fr = static_cast<const PmFreeInst*>(inst);
        const uint64_t p = eval(regs, fr->pointer());
        if (p < kVolatileBase) {
          pool_->free(p);
          if (rt_) rt_->on_free(p);
        }
        break;
      }
      case Opcode::kLoad: {
        const auto* l = static_cast<const LoadInst*>(inst);
        regs[inst] = load_int(eval(regs, l->pointer()), l->type()->size());
        break;
      }
      case Opcode::kStore: {
        const auto* s = static_cast<const StoreInst*>(inst);
        const uint64_t addr = eval(regs, s->pointer());
        note_loc(addr);
        store_int(addr, eval(regs, s->value()), s->value()->type()->size());
        break;
      }
      case Opcode::kGep:
        regs[inst] = gep_address(regs, static_cast<const GepInst*>(inst));
        break;
      case Opcode::kCast:
        regs[inst] =
            eval(regs, static_cast<const CastInst*>(inst)->source());
        break;
      case Opcode::kMemSet: {
        const auto* m = static_cast<const MemSetInst*>(inst);
        const uint64_t p = eval(regs, m->pointer());
        const uint64_t byte = eval(regs, m->byte());
        const uint64_t size = eval(regs, m->size());
        note_loc(p);
        if (size) {
          // Range first, so the buffer is bounded by the pool or the arena.
          check_access(p, size, /*store=*/true);
          std::vector<uint8_t> buf(size, static_cast<uint8_t>(byte));
          mem_write(p, buf.data(), size);
        }
        break;
      }
      case Opcode::kMemCpy: {
        const auto* m = static_cast<const MemCpyInst*>(inst);
        const uint64_t d = eval(regs, m->dest());
        const uint64_t s = eval(regs, m->source());
        const uint64_t size = eval(regs, m->size());
        note_loc(d);
        if (size) {
          check_access(s, size, /*store=*/false);
          check_access(d, size, /*store=*/true);
          std::vector<uint8_t> buf(size);
          mem_read(s, buf.data(), size);
          mem_write(d, buf.data(), size);
        }
        break;
      }
      case Opcode::kFlush: {
        const auto* fl = static_cast<const FlushInst*>(inst);
        const uint64_t p = eval(regs, fl->pointer());
        const uint64_t size = eval(regs, fl->size());
        if (p < kVolatileBase) {
          note_loc(p);
          const bool redundant = pool_->flush(p, size);
          if (rt_) {
            rt_->on_flush(current_strand_, p, size);
            if (redundant) rt_->report_redundant_flush(inst->loc(), p);
          }
        }
        break;
      }
      case Opcode::kPersist: {
        const auto* fl = static_cast<const FlushInst*>(inst);
        const uint64_t p = eval(regs, fl->pointer());
        const uint64_t size = eval(regs, fl->size());
        note_loc(p);
        if (p < kVolatileBase) {
          const bool redundant = pool_->flush(p, size);
          if (rt_) {
            rt_->on_flush(current_strand_, p, size);
            if (redundant) rt_->report_redundant_flush(inst->loc(), p);
          }
        }
        pool_->fence();
        if (rt_) rt_->on_fence(current_strand_);
        break;
      }
      case Opcode::kFence:
        note_loc(0);
        pool_->fence();
        if (rt_) rt_->on_fence(current_strand_);
        break;
      case Opcode::kTxAdd: {
        // Undo-log registration: framework-level semantics (snapshot +
        // commit-time flush) are modeled by the mini frameworks; at IR
        // level tx.add is a persistence hint — forwarded to the event sink
        // so the crash-state oracle knows which ranges are logged.
        if (sink) {
          const auto* ta = static_cast<const TxAddInst*>(inst);
          const uint64_t p = eval(regs, ta->pointer());
          const uint64_t size = eval(regs, ta->size());
          if (p < kVolatileBase) sink->on_tx_add(p, size, inst->loc());
        }
        break;
      }
      case Opcode::kTxBegin: {
        const auto* tb = static_cast<const TxBeginInst*>(inst);
        if (sink)
          sink->on_region_begin(static_cast<uint8_t>(tb->region_kind()),
                                inst->loc());
        // Strands are *meant* to run with each other's flushes in flight;
        // only tx/epoch boundaries owe a barrier.
        if (rt_ && tb->region_kind() != RegionKind::kStrand &&
            !pool_->tracker().pending_lines().empty())
          rt_->report_unfenced_tx_begin(inst->loc());
        if (rt_) {
          if (tb->region_kind() == RegionKind::kStrand) {
            strand_stack_.push_back(current_strand_);
            current_strand_ = rt_->strand_begin();
          } else {
            rt_->epoch_begin();
          }
        }
        break;
      }
      case Opcode::kTxEnd: {
        const auto* te = static_cast<const TxEndInst*>(inst);
        if (sink)
          sink->on_region_end(static_cast<uint8_t>(te->region_kind()),
                              inst->loc());
        if (rt_) {
          if (te->region_kind() == RegionKind::kStrand) {
            rt_->strand_end(current_strand_);
            current_strand_ =
                strand_stack_.empty() ? 0 : strand_stack_.back();
            if (!strand_stack_.empty()) strand_stack_.pop_back();
          } else {
            rt_->epoch_end();
          }
        }
        break;
      }
      case Opcode::kCall: {
        const auto* c = static_cast<const CallInst*>(inst);
        std::vector<uint64_t> call_args;
        call_args.reserve(c->args().size());
        for (Value* a : c->args()) call_args.push_back(eval(regs, a));

        if (is_runtime_hook(c->callee())) {
          if (rt_ && call_args.size() >= 2 &&
              call_args[0] < kVolatileBase) {
            if (c->callee() == kRtWrite)
              rt_->on_write(current_strand_, call_args[0], call_args[1],
                            c->loc());
            else if (c->callee() == kRtRead)
              rt_->on_read(current_strand_, call_args[0], call_args[1],
                           c->loc());
            else if (c->callee() == kRtAlloc)
              rt_->on_alloc(call_args[0], call_args[1]);
          }
          break;
        }

        const Function* callee = module_.find_function(c->callee());
        if (!callee) {
          regs[inst] = 0;  // unknown external
          break;
        }
        auto result = exec_function(*callee, call_args, depth + 1);
        if (!c->type()->is_void()) regs[inst] = result.value_or(0);
        break;
      }
      case Opcode::kBinOp: {
        const auto* b = static_cast<const BinOpInst*>(inst);
        const int64_t l = static_cast<int64_t>(eval(regs, b->lhs()));
        const int64_t r = static_cast<int64_t>(eval(regs, b->rhs()));
        int64_t out = 0;
        switch (b->bin_kind()) {
          case BinOpKind::kAdd: out = l + r; break;
          case BinOpKind::kSub: out = l - r; break;
          case BinOpKind::kMul: out = l * r; break;
          case BinOpKind::kDiv:
            if (r == 0) throw InterpError("division by zero");
            out = l / r;
            break;
          case BinOpKind::kEq: out = l == r; break;
          case BinOpKind::kNe: out = l != r; break;
          case BinOpKind::kLt: out = l < r; break;
          case BinOpKind::kLe: out = l <= r; break;
        }
        regs[inst] = static_cast<uint64_t>(out);
        break;
      }
      case Opcode::kRet: {
        const auto* r = static_cast<const RetInst*>(inst);
        if (r->value()) return eval(regs, r->value());
        return std::nullopt;
      }
      case Opcode::kBr: {
        const auto* br = static_cast<const BrInst*>(inst);
        if (br->is_conditional()) {
          bb = eval(regs, br->condition()) ? br->true_target()
                                           : br->false_target();
        } else {
          bb = br->true_target();
        }
        ip = 0;
        continue;
      }
    }
    ++ip;
  }
  return std::nullopt;
}

}  // namespace deepmc::interp
