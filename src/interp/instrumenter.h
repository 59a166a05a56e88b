// IR instrumenter (paper §4.4, step 5 of Figure 8).
//
// Injects calls to the DeepMC runtime library into MIR so that the
// instrumented program invokes the dynamic checker during execution:
//
//   __deepmc_rt_alloc(ptr, size)   after each pm.alloc
//   __deepmc_rt_write(ptr, size)   before persistent stores
//   __deepmc_rt_read(ptr, size)    before persistent loads
//
// Following the paper's two cost-cutting rules, the instrumenter
//  (1) consults DSA so only accesses that may touch persistent memory are
//      instrumented ("avoid unnecessary instrumentation of objects that do
//      not reside in the NVM"), and
//  (2) only instruments accesses inside annotated epoch/strand/tx regions —
//      including functions called from inside such regions — rather than
//      every memory access in the program.
//
// The MIR interpreter recognizes the __deepmc_rt_* callees and routes them
// to a RuntimeChecker.
#pragma once

#include <string>

#include "analysis/dsa.h"
#include "ir/module.h"

namespace deepmc::interp {

inline constexpr const char* kRtAlloc = "__deepmc_rt_alloc";
inline constexpr const char* kRtWrite = "__deepmc_rt_write";
inline constexpr const char* kRtRead = "__deepmc_rt_read";

[[nodiscard]] inline bool is_runtime_hook(const std::string& callee) {
  return callee == kRtAlloc || callee == kRtWrite || callee == kRtRead;
}

struct InstrumenterOptions {
  /// Instrument every function, not only region-reachable code. The
  /// paper's default is region-scoped; tests turn this on to instrument
  /// code that no region reaches.
  bool whole_program = false;
};

struct InstrumenterStats {
  size_t writes_instrumented = 0;
  size_t reads_instrumented = 0;
  size_t allocs_instrumented = 0;
  size_t accesses_skipped_not_persistent = 0;
  size_t accesses_skipped_outside_regions = 0;
};

/// Instruments `module` in place. `dsa` must already be run on the module.
InstrumenterStats instrument_module(ir::Module& module,
                                    const analysis::DSA& dsa,
                                    InstrumenterOptions opts = {});

}  // namespace deepmc::interp
