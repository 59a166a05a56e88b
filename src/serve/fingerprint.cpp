#include "serve/fingerprint.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "core/model.h"
#include "ir/printer.h"
#include "ir/type.h"
#include "serve/hash.h"

namespace deepmc::serve {

namespace {

/// True when `f` can carry analysis facts between two callers: any
/// defined function (its body is analyzed), or a declared external with
/// arguments or a return value (DSA links caller memory through them). A
/// void/no-arg external is opaque and couples nothing.
bool is_coupling(const ir::Function& f) {
  if (!f.is_declaration()) return true;
  if (f.arg_count() > 0) return true;
  const ir::Type* ret = f.return_type();
  return ret != nullptr && !ret->is_void();
}

size_t uf_find(std::vector<size_t>& parent, size_t i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];
    i = parent[i];
  }
  return i;
}

/// Every struct layout in the module. TypeContext keeps structs in a
/// std::map, so the order is deterministic; a layout change anywhere
/// invalidates every root key (field offsets feed the checker).
std::string structs_fingerprint(const ir::Module& module) {
  Hasher h;
  for (const auto& [name, st] : module.types().structs()) {
    h.field(name).update_u64(st->field_count());
    for (size_t i = 0; i < st->field_count(); ++i) h.field(st->field(i)->str());
  }
  return h.hex();
}

}  // namespace

std::string options_fingerprint(const core::DriverOptions& opts) {
  Hasher h;
  h.field("deepmc-options-v1");
  h.field(core::model_name(opts.model));
  h.update_u64(opts.checker.field_sensitive ? 1 : 0);
  h.update_u64(static_cast<uint64_t>(opts.checker.trace.max_loop_visits));
  h.update_u64(static_cast<uint64_t>(opts.checker.trace.max_recursion));
  h.update_u64(opts.checker.trace.max_paths);
  h.update_u64(opts.checker.trace.max_callee_paths);
  h.update_u64(opts.checker.dsa_step_budget);
  h.update_u64(opts.checker.trace_step_budget);
  h.update_u64(opts.suggest ? 1 : 0);
  return h.hex();
}

std::string unit_key(const std::string& options_fp, const std::string& name,
                     const std::string& text) {
  return Hasher()
      .field("deepmc-unit-v1")
      .field(options_fp)
      .field(name)
      .field(text)
      .hex();
}

ModulePlan plan_module(const ir::Module& module,
                       const analysis::CallGraph& callgraph,
                       const std::vector<const ir::Function*>& roots,
                       const std::string& options_fp) {
  // Union roots that share a coupling function in their closures.
  std::vector<std::set<const ir::Function*>> closures;
  closures.reserve(roots.size());
  for (const ir::Function* root : roots)
    closures.push_back(callgraph.closure({root}));
  std::vector<size_t> parent(roots.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  std::map<const ir::Function*, size_t> owner;
  for (size_t i = 0; i < roots.size(); ++i) {
    for (const ir::Function* f : closures[i]) {
      if (!is_coupling(*f)) continue;
      auto [it, inserted] = owner.emplace(f, i);
      if (!inserted) {
        const size_t a = uf_find(parent, it->second);
        const size_t b = uf_find(parent, i);
        if (a != b) parent[b] = a;
      }
    }
  }

  // One content hash per group: sorted-by-name texts of every function in
  // the union of the group's closures.
  std::map<size_t, std::set<const ir::Function*>> group_fns;
  for (size_t i = 0; i < roots.size(); ++i) {
    auto& fns = group_fns[uf_find(parent, i)];
    fns.insert(closures[i].begin(), closures[i].end());
  }
  const std::string structs_fp = structs_fingerprint(module);
  std::map<size_t, std::string> group_hash;
  for (const auto& [rep, fns] : group_fns) {
    std::vector<const ir::Function*> sorted(fns.begin(), fns.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const ir::Function* a, const ir::Function* b) {
                return a->name() < b->name();
              });
    Hasher h;
    h.field("deepmc-group-v1");
    for (const ir::Function* f : sorted) {
      h.field(f->name());
      std::ostringstream os;
      ir::print_function(*f, os);
      h.field(os.str());
    }
    group_hash[rep] = h.hex();
  }

  ModulePlan plan;
  plan.groups = group_fns.size();
  plan.keys.reserve(roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    const std::string& gh = group_hash[uf_find(parent, i)];
    plan.keys.push_back(Hasher()
                            .field("deepmc-root-v1")
                            .field(options_fp)
                            .field(structs_fp)
                            .field(gh)
                            .field(roots[i]->name())
                            .hex());
  }
  return plan;
}

}  // namespace deepmc::serve
