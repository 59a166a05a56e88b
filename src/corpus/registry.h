// Registry of every warning site in the reproduction corpus.
//
// One entry per warning DeepMC reports in the paper's evaluation:
//   * the 19 studied bugs of Table 3,
//   * the 24 newly-found bugs of Table 8 (6 of them dynamic-only), and
//   * 7 false-positive sites (50 warnings − 43 validated bugs, §5.4).
//
// Every entry names the paper's file:line; the corpus modules
// (src/corpus/modules.cpp) attach exactly these locations to the seeded
// MIR so that checker reports can be matched against the paper row by row.
//
// Category reconciliation: the paper's Tables 1, 3 and 8 do not fully
// agree with each other (e.g. summing the per-file rows of Tables 3+8
// gives more "semantic mismatch" bugs than Table 1's 6/7 for PMDK). We
// treat Table 1 — the headline result — as ground truth for the
// category × framework matrix and adjust the category label of two PMDK
// Table 8 rows (hashmap_atomic.c:285 and obj_pmemlog_simple.c:252 are
// counted as "multiple flushes" here). See EXPERIMENTS.md for the full
// reconciliation notes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/model.h"

namespace deepmc::corpus {

enum class Framework : uint8_t { kPmdk, kPmfs, kNvmDirect, kMnemosyne };
const char* framework_name(Framework f);
/// The persistency model each framework implements (paper Table 1 caption).
core::PersistencyModel framework_model(Framework f);

enum class Provenance : uint8_t {
  kStudied,        ///< Table 3 (characterization study)
  kNewlyFound,     ///< Table 8 (new bugs found by DeepMC)
  kFalsePositive,  ///< warning validated as not-a-bug (§5.4)
};

enum class Detector : uint8_t { kStatic, kDynamic };

enum class BugLocation : uint8_t { kLib, kExample };

struct BugSite {
  std::string file;  ///< paper-cited file name, e.g. "btree_map.c"
  uint32_t line;
  Framework framework;
  core::BugCategory category;
  BugLocation location;
  Provenance provenance;
  Detector detector;
  double years;               ///< bug age (Table 8 only; 0 otherwise)
  std::string expected_rule;  ///< static rule id, or dynamic report kind:
                              ///< "rt.epoch-mismatch" / "rt.redundant-flush"
                              ///< / "rt.missing-barrier"
  std::string description;    ///< the paper's bug description
  std::string module_name;    ///< corpus module carrying this site

  [[nodiscard]] bool validated() const {
    return provenance != Provenance::kFalsePositive;
  }
  [[nodiscard]] std::string loc_str() const {
    return file + ":" + std::to_string(line);
  }
};

/// The full 50-site registry.
const std::vector<BugSite>& registry();

/// Sites filtered by predicate helpers.
std::vector<const BugSite*> sites_of(Framework f);
std::vector<const BugSite*> sites_of(Provenance p);
std::vector<const BugSite*> static_sites();
std::vector<const BugSite*> dynamic_sites();

}  // namespace deepmc::corpus
