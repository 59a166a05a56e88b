#include "core/report.h"

#include <ostream>
#include <tuple>

namespace deepmc::core {

std::string Warning::str() const {
  return loc.str() + ": warning [" + rule + "] (" +
         bug_class_name(bug_class()) + ") " + message + "  [in @" + function +
         ", model=" + model_name(model) + "]";
}

std::string to_json(const Warning& w) {
  std::string out = "{";
  out += "\"file\": " + json_quote(w.loc.file);
  out += ", \"line\": " + std::to_string(w.loc.line);
  out += ", \"rule\": " + json_quote(w.rule);
  out += ", \"category\": " + json_quote(category_name(w.category));
  out += ", \"class\": " + json_quote(bug_class_name(w.bug_class()));
  out += ", \"function\": " + json_quote(w.function);
  out += ", \"model\": " + json_quote(model_name(w.model));
  out += ", \"message\": " + json_quote(w.message);
  out += "}";
  return out;
}

void CheckResult::add(Warning w) {
  if (contains(w.rule, w.loc)) return;  // dedup
  warnings_.push_back(std::move(w));
}

bool CheckResult::contains(std::string_view rule, const SourceLoc& loc) const {
  for (const Warning& w : warnings_)
    if (w.loc.line == loc.line && w.rule == rule && w.loc.file == loc.file)
      return true;
  return false;
}

void CheckResult::merge(const CheckResult& other) {
  for (const Warning& w : other.warnings_) add(w);
  traces_checked += other.traces_checked;
  functions_checked += other.functions_checked;
}

std::vector<const Warning*> CheckResult::by_category(BugCategory c) const {
  std::vector<const Warning*> out;
  for (const Warning& w : warnings_)
    if (w.category == c) out.push_back(&w);
  return out;
}

std::vector<const Warning*> CheckResult::by_rule(std::string_view r) const {
  std::vector<const Warning*> out;
  for (const Warning& w : warnings_)
    if (w.rule == r) out.push_back(&w);
  return out;
}

std::vector<const Warning*> CheckResult::at(std::string_view file,
                                            uint32_t line) const {
  std::vector<const Warning*> out;
  for (const Warning& w : warnings_)
    if (w.loc.file == file && w.loc.line == line) out.push_back(&w);
  return out;
}

size_t CheckResult::count_class(BugClass c) const {
  size_t n = 0;
  for (const Warning& w : warnings_)
    if (w.bug_class() == c) ++n;
  return n;
}

void CheckResult::sort() {
  std::sort(warnings_.begin(), warnings_.end(),
            [](const Warning& a, const Warning& b) {
              return std::tie(a.loc.file, a.loc.line, a.rule) <
                     std::tie(b.loc.file, b.loc.line, b.rule);
            });
}

void CheckResult::fold_empty_tx_shadows() {
  std::vector<SourceLoc> empty_tx_locs;
  for (const Warning& w : warnings_)
    if (w.rule == "perf.empty-durable-tx") empty_tx_locs.push_back(w.loc);
  if (empty_tx_locs.empty()) return;
  auto shadowed = [&](const Warning& w) {
    if (w.rule != "perf.flush-unmodified" && w.rule != "perf.redundant-flush" &&
        w.rule != "perf.persist-same-object")
      return false;
    for (const SourceLoc& loc : empty_tx_locs)
      if (loc == w.loc) return true;
    return false;
  };
  warnings_.erase(std::remove_if(warnings_.begin(), warnings_.end(), shadowed),
                  warnings_.end());
}

void CheckResult::print(std::ostream& os) const {
  for (const Warning& w : warnings_) os << w.str() << "\n";
  os << warnings_.size() << " warning(s), " << traces_checked
     << " trace(s) checked across " << functions_checked << " function(s)\n";
}

}  // namespace deepmc::core
