// Trace collection (paper §4.3).
//
// A trace is a program-order sequence of persistence-relevant events along
// one control-flow path: stores, loads, flushes, fences, tx.add, and
// region begin/end markers, each annotated with the DSG memory region it
// touches and whether that region is persistent.
//
// Collection walks the CFG depth-first from a root function. At call sites
// whose callee is defined in the module, the callee's traces are spliced in
// (interprocedural merging, Figure 11), bounded by a recursion limit. Loops
// are explored a bounded number of iterations (10 by default) and the total
// number of paths per root is capped, mirroring the paper's path-explosion
// controls. Paths that contain persistent operations are prioritized: when
// the path budget runs out, exploration continues on the true edge only.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "analysis/dsa.h"
#include "ir/module.h"
#include "support/budget.h"

namespace deepmc::analysis {

enum class EventKind : uint8_t {
  kStore,
  kLoad,
  kFlush,    ///< pm.flush (no ordering guarantee by itself)
  kFence,    ///< pm.fence / persist barrier
  kTxAdd,    ///< undo-log registration (makes the object durable at tx end)
  kTxBegin,
  kTxEnd,
  kPmAlloc,
};

const char* event_kind_name(EventKind k);

struct TraceEvent {
  EventKind kind;
  const ir::Instruction* inst = nullptr;  ///< carries the SourceLoc metadata
  MemRegion region;                       ///< memory ops only
  ir::RegionKind region_kind = ir::RegionKind::kTx;  ///< begin/end markers
  bool persistent = false;  ///< region resides in persistent memory

  [[nodiscard]] const SourceLoc& loc() const {
    static const SourceLoc none;
    return inst ? inst->loc() : none;
  }
};

struct Trace {
  const ir::Function* root = nullptr;
  std::vector<TraceEvent> events;

  [[nodiscard]] size_t persistent_event_count() const {
    size_t n = 0;
    for (const auto& e : events)
      if (e.persistent) ++n;
    return n;
  }
};

struct TraceOptions {
  int max_loop_visits = 10;    ///< per-path visits of one block (paper: 10)
  int max_recursion = 5;       ///< call-inlining depth (paper: 5)
  size_t max_paths = 256;      ///< paths per root function
  size_t max_callee_paths = 4; ///< callee trace variants spliced per site
};

class TraceCollector {
 public:
  /// Receives one finished path's events. They live in the walk's own
  /// buffer, so they are valid only for the duration of the call.
  using PathVisitor = std::function<void(std::span<const TraceEvent>)>;

  TraceCollector(const ir::Module& module, const DSA& dsa,
                 TraceOptions opts = {});

  /// Walk the bounded paths rooted at `f` depth-first and hand each
  /// finished path to `visit`, in path order; returns the path count.
  /// When `budget` is non-null, every instruction step charges one unit
  /// against it; the budget must be private to this invocation (see
  /// support/budget.h) so trip points stay deterministic. Throws
  /// support::BudgetExceeded / support::CancelledError out of the walk;
  /// the trace.* metrics count only walks that complete.
  size_t walk(const ir::Function& f, support::Budget* budget,
              const PathVisitor& visit) const;

  /// All bounded traces rooted at `f`: walk() with each path copied out.
  [[nodiscard]] std::vector<Trace> collect(
      const ir::Function& f, support::Budget* budget = nullptr) const;

 private:
  struct Walker;
  const ir::Module& module_;
  const DSA& dsa_;
  TraceOptions opts_;
};

}  // namespace deepmc::analysis
