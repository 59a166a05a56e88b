#include "analysis/callgraph.h"

#include <algorithm>
#include <functional>

namespace deepmc::analysis {

using ir::CallInst;
using ir::Function;
using ir::Instruction;
using ir::Module;
using ir::Opcode;

CallGraph::CallGraph(const Module& module) : module_(module) {
  for (const auto& f : module.functions()) {
    auto& out = edges_[f.get()];
    auto& sites = sites_[f.get()];
    for (const auto& bb : f->blocks()) {
      for (const auto& inst : bb->instructions()) {
        if (inst->opcode() != Opcode::kCall) continue;
        const auto* call = static_cast<const CallInst*>(inst.get());
        sites.push_back(call);
        if (const Function* callee = module.find_function(call->callee())) {
          if (std::find(out.begin(), out.end(), callee) == out.end())
            out.push_back(callee);
          if (callee == f.get()) self_call_[f.get()] = true;
        }
      }
    }
  }
  compute_sccs();
}

const std::vector<const Function*>& CallGraph::callees(
    const Function* f) const {
  static const std::vector<const Function*> empty;
  auto it = edges_.find(f);
  return it == edges_.end() ? empty : it->second;
}

std::set<const Function*> CallGraph::closure(
    const std::vector<const Function*>& roots) const {
  std::set<const Function*> seen;
  std::vector<const Function*> stack(roots.begin(), roots.end());
  while (!stack.empty()) {
    const Function* f = stack.back();
    stack.pop_back();
    if (!seen.insert(f).second) continue;
    for (const Function* callee : callees(f)) stack.push_back(callee);
  }
  return seen;
}

const std::vector<const CallInst*>& CallGraph::call_sites(
    const Function* f) const {
  static const std::vector<const CallInst*> empty;
  auto it = sites_.find(f);
  return it == sites_.end() ? empty : it->second;
}

size_t CallGraph::scc_id(const Function* f) const {
  auto it = scc_.find(f);
  return it == scc_.end() ? static_cast<size_t>(-1) : it->second;
}

bool CallGraph::is_recursive(const Function* f) const {
  auto self = self_call_.find(f);
  if (self != self_call_.end() && self->second) return true;
  auto id = scc_.find(f);
  if (id == scc_.end()) return false;
  auto sz = scc_size_.find(id->second);
  return sz != scc_size_.end() && sz->second > 1;
}

void CallGraph::compute_sccs() {
  // Iterative Tarjan SCC; emits post-order as a byproduct (SCCs are emitted
  // callee-first because Tarjan pops an SCC only after all its successors'
  // SCCs are complete).
  size_t next_index = 0, next_scc = 0;
  std::map<const Function*, size_t> index, lowlink;
  std::map<const Function*, bool> on_stack;
  std::vector<const Function*> stack;

  struct Frame {
    const Function* f;
    size_t child = 0;
  };

  std::function<void(const Function*)> strongconnect =
      [&](const Function* root) {
        std::vector<Frame> frames{{root}};
        index[root] = lowlink[root] = next_index++;
        stack.push_back(root);
        on_stack[root] = true;

        while (!frames.empty()) {
          Frame& fr = frames.back();
          const auto& succ = edges_[fr.f];
          if (fr.child < succ.size()) {
            const Function* w = succ[fr.child++];
            if (!index.count(w)) {
              index[w] = lowlink[w] = next_index++;
              stack.push_back(w);
              on_stack[w] = true;
              frames.push_back({w});
            } else if (on_stack[w]) {
              lowlink[fr.f] = std::min(lowlink[fr.f], index[w]);
            }
          } else {
            if (lowlink[fr.f] == index[fr.f]) {
              const size_t id = next_scc++;
              size_t members = 0;
              const Function* w;
              do {
                w = stack.back();
                stack.pop_back();
                on_stack[w] = false;
                scc_[w] = id;
                post_order_.push_back(w);
                ++members;
              } while (w != fr.f);
              scc_size_[id] = members;
            }
            const Function* done = fr.f;
            frames.pop_back();
            if (!frames.empty())
              lowlink[frames.back().f] =
                  std::min(lowlink[frames.back().f], lowlink[done]);
          }
        }
      };

  for (const auto& f : module_.functions())
    if (!index.count(f.get())) strongconnect(f.get());
}

}  // namespace deepmc::analysis
