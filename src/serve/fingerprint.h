// Cache-key planning for the incremental analysis server.
//
// Every key starts with the options fingerprint, which is also the one
// rule for which requests the cache may serve. Two key granularities
// (docs/SERVER.md):
//
//   unit key  — options fingerprint + unit name + raw request text. A hit
//               replays the whole UnitReport without parsing or analysis.
//   root key  — options fingerprint + module struct layout + the source
//               text and signature of every function in the root's
//               *coupling group* + the root name. A hit hands the driver
//               that root's raw CheckResult and only the dirty cone is
//               recomputed.
//
// Coupling groups make per-root reuse sound: DSA's Bottom-Up/Top-Down
// phases flow points-to facts through shared callees, so two roots whose
// call closures overlap on a function that can carry such facts must be
// invalidated together. Roots are grouped with union-find over shared
// "coupling" functions (any defined function; declared externals couple
// only when they take arguments or return a value — a void/no-arg
// external cannot move facts between callers). The group content hash
// covers every function in the union of the group's closures, so
// touching any function in the cone dirties exactly the roots that could
// observe it.
//
// A function is hashed as its name, its text in the request (the span the
// parser recorded) and its parsed signature. A function parses from its
// own text, the struct layouts, its callees' signatures and, for its own
// signature, which structs precede it; the struct fingerprint, the
// callees' entries (a callee is in its caller's closure) and the signature
// cover the rest. Text outside every span (comments and blank lines
// between functions, the order of functions) leaves every key as it was;
// any byte inside a span, comments and whitespace included, dirties the
// function's group.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/callgraph.h"
#include "core/analysis_driver.h"
#include "ir/module.h"

namespace deepmc::serve {

/// The one cacheability rule. Empty when `opts` asks for output the wire
/// format cannot represent: dynamic findings, crashsim blocks, dumps,
/// suggestion text, suppression accounting and step-budget-degraded rungs
/// all live outside the encoded payload, so such a request runs fresh
/// every time ("off"). Otherwise a hash of exactly the options a cached
/// result depends on: the model (`opts.model` must already be the
/// effective per-unit model), field sensitivity and the four trace bounds.
///
/// Wall-clock deadlines (budgets.wall_ms and the per-request deadline_at)
/// stay cacheable and outside the hash: the watchdog only cancels, so a
/// unit that finished is byte-identical to an unbounded run, and a
/// cancelled unit never ends kOk, so it is never stored.
std::optional<std::string> options_fingerprint(
    const core::DriverOptions& opts);

/// Whole-unit cache key over the raw request text (pre-parse).
std::string unit_key(const std::string& options_fp, const std::string& name,
                     const std::string& text);

struct ModulePlan {
  /// Per-root cache keys, in `roots` order. A key is empty when the root's
  /// group holds a function with no source span in the text (one the
  /// parser did not make): that root is never looked up or stored.
  std::vector<std::string> keys;
  size_t groups = 0;  ///< number of distinct coupling groups
};

/// Per-root keys for `roots` of `module`, which was parsed from `text` and
/// whose call graph is `callgraph`: the driver passes its own module, call
/// graph and trace_roots(), and the service the request text.
ModulePlan plan_module(const ir::Module& module, std::string_view text,
                       const analysis::CallGraph& callgraph,
                       const std::vector<const ir::Function*>& roots,
                       const std::string& options_fp);

}  // namespace deepmc::serve
