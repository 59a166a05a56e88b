#include "serve/fingerprint.h"

#include <algorithm>
#include <map>
#include <set>

#include "core/model.h"
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

std::optional<std::string> options_fingerprint(
    const core::DriverOptions& opts) {
  if (opts.dynamic_run || opts.crashsim || opts.dump_ir || opts.dump_dsg ||
      opts.dump_traces || opts.suggest || opts.suppressions.size() > 0 ||
      opts.budgets.trace_steps || opts.budgets.dsa_steps ||
      opts.budgets.enum_images || opts.budgets.interp_steps)
    return std::nullopt;
  Hasher h;
  h.field("deepmc-options-v2");
  h.field(core::model_name(opts.model));
  h.update_u64(opts.field_sensitive ? 1 : 0);
  h.update_u64(static_cast<uint64_t>(opts.trace.max_loop_visits));
  h.update_u64(static_cast<uint64_t>(opts.trace.max_recursion));
  h.update_u64(opts.trace.max_paths);
  h.update_u64(opts.trace.max_callee_paths);
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

ModulePlan plan_module(const ir::Module& module, std::string_view text,
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

  // One content hash per group over every function in the union of the
  // group's closures, sorted by name; empty when one of them has no span.
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
    h.field("deepmc-group-v2");
    bool spanned = true;
    for (const ir::Function* f : sorted) {
      const std::optional<ir::SourceSpan>& span = f->source_span();
      if (!span || span->offset > text.size() ||
          span->size > text.size() - span->offset) {
        spanned = false;
        break;
      }
      h.field(f->name()).field(text.substr(span->offset, span->size));
      h.field(f->return_type()->str()).update_u64(f->arg_count());
      for (const auto& arg : f->args()) h.field(arg->type()->str());
    }
    group_hash[rep] = spanned ? h.hex() : std::string();
  }

  ModulePlan plan;
  plan.groups = group_fns.size();
  plan.keys.reserve(roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    const std::string& gh = group_hash[uf_find(parent, i)];
    if (gh.empty()) {
      plan.keys.emplace_back();
      continue;
    }
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
