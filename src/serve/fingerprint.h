// Cache-key planning for the incremental analysis server.
//
// Two key granularities (docs/SERVER.md):
//
//   unit key  — options fingerprint + unit name + raw request text. A hit
//               replays the whole UnitReport without parsing or analysis.
//   root key  — options fingerprint + module struct layout + the content
//               of the root's *coupling group* + the root name. A hit
//               hands the driver that root's raw CheckResult and only the
//               dirty cone is recomputed.
//
// Coupling groups make per-root reuse sound: DSA's Bottom-Up/Top-Down
// phases flow points-to facts through shared callees, so two roots whose
// call closures overlap on a function that can carry such facts must be
// invalidated together. Roots are grouped with union-find over shared
// "coupling" functions (any defined function; declared externals couple
// only when they take arguments or return a value — a void/no-arg
// external cannot move facts between callers). The group content hash
// covers every function text in the union of the group's closures, so
// touching any function in the cone dirties exactly the roots that could
// observe it.
#pragma once

#include <string>
#include <vector>

#include "analysis/callgraph.h"
#include "core/analysis_driver.h"
#include "ir/module.h"

namespace deepmc::serve {

/// Fingerprint of every DriverOptions knob that can change analysis
/// results. `opts.model` must already be the effective per-unit model.
std::string options_fingerprint(const core::DriverOptions& opts);

/// Whole-unit cache key over the raw request text (pre-parse).
std::string unit_key(const std::string& options_fp, const std::string& name,
                     const std::string& text);

struct ModulePlan {
  std::vector<std::string> keys;  ///< per-root cache keys, in `roots` order
  size_t groups = 0;              ///< number of distinct coupling groups
};

/// Per-root keys for `roots` of `module`, whose call graph is `callgraph`:
/// the driver passes its own module, call graph and trace_roots().
ModulePlan plan_module(const ir::Module& module,
                       const analysis::CallGraph& callgraph,
                       const std::vector<const ir::Function*>& roots,
                       const std::string& options_fp);

}  // namespace deepmc::serve
