// MIR containers: BasicBlock, Function, Module.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/instruction.h"

namespace deepmc::ir {

class Function;
class Module;

/// A byte range of the text a module was parsed from.
struct SourceSpan {
  size_t offset = 0;
  size_t size = 0;
};

class BasicBlock {
 public:
  BasicBlock(std::string name, Function* parent)
      : name_(std::move(name)), parent_(parent) {}
  BasicBlock(const BasicBlock&) = delete;
  BasicBlock& operator=(const BasicBlock&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Function* parent() const { return parent_; }

  Instruction* append(std::unique_ptr<Instruction> inst) {
    inst->set_parent(this);
    insts_.push_back(std::move(inst));
    return insts_.back().get();
  }

  /// Insert before position `pos` (used by the instrumenter).
  Instruction* insert(size_t pos, std::unique_ptr<Instruction> inst) {
    inst->set_parent(this);
    auto it = insts_.insert(insts_.begin() + static_cast<long>(pos),
                            std::move(inst));
    return it->get();
  }

  [[nodiscard]] const std::vector<std::unique_ptr<Instruction>>& instructions()
      const {
    return insts_;
  }
  [[nodiscard]] size_t size() const { return insts_.size(); }
  [[nodiscard]] bool empty() const { return insts_.empty(); }

  [[nodiscard]] Instruction* terminator() const {
    if (insts_.empty() || !insts_.back()->is_terminator()) return nullptr;
    return insts_.back().get();
  }

  /// Successor blocks per the terminator (empty for ret / missing).
  [[nodiscard]] std::vector<BasicBlock*> successors() const;

 private:
  std::string name_;
  Function* parent_;
  std::vector<std::unique_ptr<Instruction>> insts_;
};

class Function {
 public:
  Function(std::string name, const Type* return_type,
           std::vector<std::pair<std::string, const Type*>> params,
           Module* parent);
  Function(const Function&) = delete;
  Function& operator=(const Function&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Type* return_type() const { return return_type_; }
  [[nodiscard]] Module* parent() const { return parent_; }

  [[nodiscard]] const std::vector<std::unique_ptr<Argument>>& args() const {
    return args_;
  }
  [[nodiscard]] Argument* arg(size_t i) const { return args_.at(i).get(); }
  [[nodiscard]] size_t arg_count() const { return args_.size(); }

  BasicBlock* create_block(std::string name);
  [[nodiscard]] BasicBlock* entry() const {
    return blocks_.empty() ? nullptr : blocks_.front().get();
  }
  [[nodiscard]] const std::vector<std::unique_ptr<BasicBlock>>& blocks() const {
    return blocks_;
  }

  /// Declaration-only functions (external; no body).
  [[nodiscard]] bool is_declaration() const { return blocks_.empty(); }

  /// Where the parser read the function: a define from its `define`
  /// through its closing '}', a declare from its `declare` to the end of
  /// the line's code. Unset for functions the parser did not make.
  [[nodiscard]] const std::optional<SourceSpan>& source_span() const {
    return span_;
  }
  void set_source_span(SourceSpan span) { span_ = span; }

  /// Values owned by the function body (constants created by the builder).
  Value* own(std::unique_ptr<Value> v) {
    owned_.push_back(std::move(v));
    return owned_.back().get();
  }

 private:
  std::string name_;
  const Type* return_type_;
  Module* parent_;
  std::vector<std::unique_ptr<Argument>> args_;
  std::vector<std::unique_ptr<BasicBlock>> blocks_;
  std::vector<std::unique_ptr<Value>> owned_;
  std::optional<SourceSpan> span_;
};

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] TypeContext& types() { return types_; }
  [[nodiscard]] const TypeContext& types() const { return types_; }

  Function* create_function(
      std::string name, const Type* return_type,
      std::vector<std::pair<std::string, const Type*>> params);

  [[nodiscard]] Function* find_function(const std::string& name) const;
  [[nodiscard]] const std::vector<std::unique_ptr<Function>>& functions()
      const {
    return funcs_;
  }

 private:
  std::string name_;
  TypeContext types_;
  std::vector<std::unique_ptr<Function>> funcs_;
};

}  // namespace deepmc::ir
