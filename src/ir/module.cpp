#include "ir/module.h"

namespace deepmc::ir {

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kAlloca: return "alloca";
    case Opcode::kPmAlloc: return "pm.alloc";
    case Opcode::kPmFree: return "pm.free";
    case Opcode::kLoad: return "load";
    case Opcode::kStore: return "store";
    case Opcode::kGep: return "gep";
    case Opcode::kMemSet: return "memset";
    case Opcode::kMemCpy: return "memcpy";
    case Opcode::kFlush: return "pm.flush";
    case Opcode::kFence: return "pm.fence";
    case Opcode::kPersist: return "pm.persist";
    case Opcode::kTxAdd: return "tx.add";
    case Opcode::kTxBegin: return "tx.begin";
    case Opcode::kTxEnd: return "tx.end";
    case Opcode::kCall: return "call";
    case Opcode::kRet: return "ret";
    case Opcode::kBr: return "br";
    case Opcode::kBinOp: return "binop";
    case Opcode::kCast: return "cast";
  }
  return "?";
}

const char* region_kind_name(RegionKind k) {
  switch (k) {
    case RegionKind::kTx: return "tx";
    case RegionKind::kEpoch: return "epoch";
    case RegionKind::kStrand: return "strand";
  }
  return "?";
}

const char* binop_name(BinOpKind k) {
  switch (k) {
    case BinOpKind::kAdd: return "add";
    case BinOpKind::kSub: return "sub";
    case BinOpKind::kMul: return "mul";
    case BinOpKind::kDiv: return "div";
    case BinOpKind::kEq: return "eq";
    case BinOpKind::kNe: return "ne";
    case BinOpKind::kLt: return "lt";
    case BinOpKind::kLe: return "le";
  }
  return "?";
}

std::vector<BasicBlock*> BasicBlock::successors() const {
  std::vector<BasicBlock*> out;
  if (auto* term = terminator()) {
    if (auto* br = dynamic_cast<BrInst*>(term)) {
      if (br->true_target()) out.push_back(br->true_target());
      if (br->is_conditional() && br->false_target())
        out.push_back(br->false_target());
    }
  }
  return out;
}

Function::Function(std::string name, const Type* return_type,
                   std::vector<std::pair<std::string, const Type*>> params,
                   Module* parent)
    : name_(std::move(name)), return_type_(return_type), parent_(parent) {
  unsigned idx = 0;
  for (auto& [pname, ptype] : params) {
    args_.push_back(std::make_unique<Argument>(ptype, pname, idx++));
  }
}

BasicBlock* Function::create_block(std::string name) {
  blocks_.push_back(std::make_unique<BasicBlock>(std::move(name), this));
  return blocks_.back().get();
}

Function* Module::create_function(
    std::string name, const Type* return_type,
    std::vector<std::pair<std::string, const Type*>> params) {
  if (find_function(name))
    throw std::invalid_argument("duplicate function: " + name);
  funcs_.push_back(std::make_unique<Function>(std::move(name), return_type,
                                              std::move(params), this));
  return funcs_.back().get();
}

Function* Module::find_function(const std::string& name) const {
  for (const auto& f : funcs_)
    if (f->name() == name) return f.get();
  return nullptr;
}

}  // namespace deepmc::ir
