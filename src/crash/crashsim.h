// Per-root crash simulation: record, enumerate, witness, classify.
//
// simulate_root() drives the full pipeline for one trace root: execute the
// function on a fresh pool with an EventRecorder attached, replay the
// recorded log once, run the trace oracle over that replay to extract
// witnesses, enumerate every reachable crash image (counting the pruned
// state space), and — when the unit names a framework — replay that
// framework's recovery on each image to classify it consistent or
// inconsistent. Without a framework the images are counted, never built.
//
// Everything here is deterministic and self-contained, so the analysis
// driver can fan roots across its thread pool and merge results in root
// order for byte-identical reports at any --jobs value.
#pragma once

#include <string>
#include <vector>

#include "crash/enumerator.h"
#include "crash/recovery_oracle.h"
#include "crash/trace_oracle.h"
#include "ir/module.h"

namespace deepmc::crash {

struct CrashSimOptions {
  core::PersistencyModel model = core::PersistencyModel::kStrict;
  /// Framework tag for the recovery oracle ("pmdk_mini", ...); empty or
  /// unknown disables recovery replay (images are then only enumerated).
  std::string framework;
  size_t max_subset_bits = 10;
  uint64_t pool_bytes = 1ull << 22;
  uint64_t max_steps = 2'000'000;
  /// Resilience-layer budgets (0 = unlimited). `interp_step_budget` caps
  /// the pre-crash execution and, unlike the safety-net `max_steps`,
  /// surfaces exhaustion as support::BudgetExceeded (so the driver can
  /// degrade the unit instead of recording a trap); a budget at or above
  /// `max_steps` never trips. `image_budget` caps enumeration per root.
  /// The cancel token propagates into the interpreter and the budgets.
  uint64_t interp_step_budget = 0;
  uint64_t image_budget = 0;
  support::CancelToken cancel;
};

struct RootCrashSim {
  std::string root;
  bool executed = false;   ///< the root ran to completion
  std::string error;       ///< interpreter failure, when !executed
  Enumerator::Stats stats;
  std::vector<Witness> witnesses;
  uint64_t images_consistent = 0;
  uint64_t images_inconsistent = 0;
  uint64_t images_skipped = 0;  ///< no recovery oracle applicable
};

/// Simulate crashes for one zero-argument root function.
RootCrashSim simulate_root(const ir::Module& module, const ir::Function& root,
                           const CrashSimOptions& opts);

}  // namespace deepmc::crash
