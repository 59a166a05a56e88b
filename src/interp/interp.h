// MIR interpreter.
//
// Executes MIR against the PM emulation substrate (src/pmem). This is the
// dynamic half of the reproduction: instrumented modules invoke the
// __deepmc_rt_* hooks, which the interpreter routes to a RuntimeChecker
// (src/runtime), exactly as the paper's instrumented native binaries call
// the DeepMC runtime library.
//
// Memory layout: persistent addresses are pool offsets in
// [0, pool.size()); volatile (alloca) memory lives in
// [kVolatileBase, kVolatileBase + Options::volatile_bytes). The arena
// behind it starts empty and grows as stores reach further, so bytes never
// written read as zero without being allocated. Pointers are plain 64-bit
// values, so programs can pass them through integer fields the way C does.
//
// Persistence intrinsics map 1:1 onto substrate operations, so a crash can
// be simulated at any point after run() and the surviving pool image
// inspected — this is how the corpus validates that model-violation bugs
// have real crash-consistency consequences.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "ir/module.h"
#include "pmem/pool.h"
#include "runtime/dynamic_checker.h"
#include "support/budget.h"

namespace deepmc::interp {

inline constexpr uint64_t kVolatileBase = 1ull << 40;

class InterpError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The step-budget trap, distinguishable from genuine program traps so
/// the resilience layer can reclassify it (InterpError keeps catching it
/// for existing callers).
class StepLimitReached : public InterpError {
 public:
  explicit StepLimitReached(uint64_t limit)
      : InterpError("step budget exceeded"), limit_(limit) {}

  [[nodiscard]] uint64_t limit() const { return limit_; }

 private:
  uint64_t limit_ = 0;
};

class Interpreter {
 public:
  struct Options {
    uint64_t max_steps = 10'000'000;  ///< instruction budget per run()
    uint64_t max_call_depth = 256;
    /// Limit of alloca memory per Interpreter. An alloca past it traps
    /// ("volatile memory exhausted"), as does a load or store that ends
    /// past it; the arena is allocated only as far as stores reach.
    uint64_t volatile_bytes = 1 << 20;
    /// Cooperative cancellation, polled every few thousand steps; fires
    /// as support::CancelledError out of run(). Default token never fires.
    support::CancelToken cancel;
  };

  Interpreter(const ir::Module& module, pmem::PmPool& pool,
              rt::RuntimeChecker* runtime = nullptr)
      : Interpreter(module, pool, runtime, Options{}) {}
  Interpreter(const ir::Module& module, pmem::PmPool& pool,
              rt::RuntimeChecker* runtime, Options opts);

  /// Execute `f` with integer/pointer arguments. Returns the ret value (if
  /// any). Throws InterpError on traps (bad memory, step budget, ...).
  std::optional<uint64_t> run(const ir::Function& f,
                              std::vector<uint64_t> args = {});

  /// Execute the module's "main" function.
  std::optional<uint64_t> run_main();

  [[nodiscard]] uint64_t steps_executed() const { return steps_; }
  [[nodiscard]] pmem::PmPool& pool() { return *pool_; }

 private:
  uint64_t eval(const std::map<const ir::Value*, uint64_t>& regs,
                const ir::Value* v) const;
  std::optional<uint64_t> exec_function(const ir::Function& f,
                                        const std::vector<uint64_t>& args,
                                        uint64_t depth);

  /// Whether [off, off+size) of the arena lies within volatile_bytes.
  [[nodiscard]] bool volatile_fits(uint64_t off, uint64_t size) const;
  /// Throws what a load (`store` false) or store of [addr, addr+size)
  /// would for an out-of-range access, without touching memory.
  void check_access(uint64_t addr, uint64_t size, bool store) const;
  void mem_write(uint64_t addr, const void* src, uint64_t size);
  void mem_read(uint64_t addr, void* dst, uint64_t size) const;
  uint64_t load_int(uint64_t addr, uint64_t size) const;
  void store_int(uint64_t addr, uint64_t value, uint64_t size);

  uint64_t gep_address(const std::map<const ir::Value*, uint64_t>& regs,
                       const ir::GepInst* gep) const;

  const ir::Module& module_;
  pmem::PmPool* pool_;
  rt::RuntimeChecker* rt_;
  Options opts_;

  std::vector<uint8_t> volatile_mem_;  ///< covers every arena byte stored
  uint64_t volatile_bump_ = 0;
  uint64_t steps_ = 0;
  rt::StrandId current_strand_ = 0;
  std::vector<rt::StrandId> strand_stack_;
};

/// Caps `opts.max_steps` at a resilience-layer interp.steps budget (0 =
/// none) and returns whether the budget set the limit. Only then is a
/// StepLimitReached from run() the budget's, to be reported as
/// support::BudgetExceeded; otherwise the interpreter's own limit tripped,
/// so a budget at or above that limit never trips.
inline bool apply_step_budget(Interpreter::Options& opts, uint64_t budget) {
  if (budget == 0 || budget >= opts.max_steps) return false;
  opts.max_steps = budget;
  return true;
}

}  // namespace deepmc::interp
