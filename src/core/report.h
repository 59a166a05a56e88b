// Checker warning records and result aggregation.
#pragma once

#include <algorithm>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/model.h"
#include "support/source_loc.h"

namespace deepmc::core {

struct Warning {
  std::string rule;       ///< machine id, e.g. "strict.unflushed-write"
  BugCategory category;
  PersistencyModel model;
  SourceLoc loc;
  std::string function;   ///< function containing the reported instruction
  std::string message;

  [[nodiscard]] BugClass bug_class() const { return category_class(category); }
  [[nodiscard]] std::string str() const;
};

/// Render `s` as a JSON string literal: surrounding quotes plus escapes
/// for quote, backslash, and control characters (\uXXXX for the ones
/// without a short form). Bytes >= 0x20 pass through, so UTF-8 survives.
std::string json_quote(std::string_view s);

/// One warning as a JSON object with a fixed key order (file, line, rule,
/// category, class, function, model, message) — the machine-readable form
/// emitted by `deepmc --format json`.
std::string to_json(const Warning& w);

/// Result of a checker run. Warnings are deduplicated on (rule, file, line)
/// — multiple paths or callers exposing the same site report once — and
/// sorted by location.
class CheckResult {
 public:
  /// Append `w` unless a warning with its (rule, file, line) is present.
  void add(Warning w);
  void merge(const CheckResult& other);
  /// Is a warning with this (rule, file, line) present?
  [[nodiscard]] bool contains(std::string_view rule,
                              const SourceLoc& loc) const;

  [[nodiscard]] const std::vector<Warning>& warnings() const {
    return warnings_;
  }
  [[nodiscard]] size_t count() const { return warnings_.size(); }
  [[nodiscard]] bool empty() const { return warnings_.empty(); }

  [[nodiscard]] std::vector<const Warning*> by_category(BugCategory c) const;
  [[nodiscard]] std::vector<const Warning*> by_rule(std::string_view r) const;
  [[nodiscard]] std::vector<const Warning*> at(std::string_view file,
                                               uint32_t line) const;
  [[nodiscard]] bool has_warning_at(std::string_view file,
                                    uint32_t line) const {
    return !at(file, line).empty();
  }
  [[nodiscard]] size_t count_class(BugClass c) const;

  /// Stable order for printing and for the bench tables.
  void sort();

  /// Where an empty-durable-transaction warning exists at a location, drop
  /// flush-level warnings (flush-unmodified / redundant-flush /
  /// persist-same-object) at that same location: they are the same bug and
  /// the paper's Table 1 counts it once. Paths through the transaction that
  /// do perform the write would otherwise re-introduce the flush warning.
  void fold_empty_tx_shadows();

  void print(std::ostream& os) const;

  // --- bookkeeping used by benches ---
  size_t traces_checked = 0;
  size_t functions_checked = 0;

 private:
  std::vector<Warning> warnings_;
};

}  // namespace deepmc::core
