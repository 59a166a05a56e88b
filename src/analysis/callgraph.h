// Call graph construction and traversal orders.
//
// DeepMC traverses the call graph in post-order (callees before callers)
// both in DSA's Bottom-Up phase and when merging callee traces into call
// sites (paper §4.2, §4.3). Recursive cycles are handled by collapsing
// strongly-connected components (Tarjan) and treating each SCC as a unit.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "ir/module.h"

namespace deepmc::analysis {

class CallGraph {
 public:
  explicit CallGraph(const ir::Module& module);

  /// Functions directly called from `f` (only those defined or declared in
  /// the module; unknown external names are skipped).
  [[nodiscard]] const std::vector<const ir::Function*>& callees(
      const ir::Function* f) const;

  /// Every function reachable from `roots` along call edges, the roots
  /// included. Declared callees are reached too; they have no callees.
  [[nodiscard]] std::set<const ir::Function*> closure(
      const std::vector<const ir::Function*>& roots) const;

  /// Call sites within `f`.
  [[nodiscard]] const std::vector<const ir::CallInst*>& call_sites(
      const ir::Function* f) const;

  /// All functions in post-order: every callee appears before its callers,
  /// with SCC members emitted consecutively.
  [[nodiscard]] const std::vector<const ir::Function*>& post_order() const {
    return post_order_;
  }

  /// SCC id of a function (functions in the same recursive cycle share one).
  [[nodiscard]] size_t scc_id(const ir::Function* f) const;

  /// True if `f` participates in a recursive cycle (including self-calls).
  [[nodiscard]] bool is_recursive(const ir::Function* f) const;

 private:
  void compute_sccs();

  const ir::Module& module_;
  std::map<const ir::Function*, std::vector<const ir::Function*>> edges_;
  std::map<const ir::Function*, std::vector<const ir::CallInst*>> sites_;
  std::vector<const ir::Function*> post_order_;
  std::map<const ir::Function*, size_t> scc_;
  std::map<size_t, size_t> scc_size_;
  std::map<const ir::Function*, bool> self_call_;
};

}  // namespace deepmc::analysis
