#include "corpus/registry.h"

namespace deepmc::corpus {

using core::BugCategory;
using core::PersistencyModel;

const char* framework_name(Framework f) {
  switch (f) {
    case Framework::kPmdk: return "PMDK";
    case Framework::kPmfs: return "PMFS";
    case Framework::kNvmDirect: return "NVM-Direct";
    case Framework::kMnemosyne: return "Mnemosyne";
  }
  return "?";
}

PersistencyModel framework_model(Framework f) {
  switch (f) {
    case Framework::kPmdk:
    case Framework::kNvmDirect:
      return PersistencyModel::kStrict;
    case Framework::kPmfs:
    case Framework::kMnemosyne:
      return PersistencyModel::kEpoch;
  }
  return PersistencyModel::kStrict;
}

namespace {

std::vector<BugSite> make_registry() {
  using F = Framework;
  using C = BugCategory;
  using P = Provenance;
  using D = Detector;
  using L = BugLocation;
  std::vector<BugSite> r;
  auto add = [&](const char* file, uint32_t line, F fw, C cat, L loc, P prov,
                 D det, double years, const char* rule, const char* desc,
                 const char* mod) {
    r.push_back(BugSite{file, line, fw, cat, loc, prov, det, years, rule,
                        desc, mod});
  };

  // =========================================================================
  // PMDK (strict persistency) — 26 warnings: 23 validated (11 studied from
  // Table 3, 12 new from Table 8) + 3 false positives.
  // =========================================================================
  // --- studied (Table 3) ---
  add("btree_map.c", 201, F::kPmdk, C::kUnflushedWrite, L::kExample,
      P::kStudied, D::kStatic, 0, "strict.unflushed-write",
      "Modify tree node without making it durable", "pmdk/btree_map");
  add("rbtree_map.c", 197, F::kPmdk, C::kFlushUnmodified, L::kExample,
      P::kStudied, D::kStatic, 0, "perf.log-unmodified",
      "Log unmodified fields of a tree node", "pmdk/rbtree_map");
  add("rbtree_map.c", 231, F::kPmdk, C::kFlushUnmodified, L::kExample,
      P::kStudied, D::kStatic, 0, "perf.log-unmodified",
      "Log unmodified fields of a tree node", "pmdk/rbtree_map");
  add("rbtree_map.c", 379, F::kPmdk, C::kMissingBarrier, L::kExample,
      P::kStudied, D::kStatic, 0, "strict.missing-barrier",
      "Modified object not made durable", "pmdk/rbtree_map");
  add("pminvaders.c", 256, F::kPmdk, C::kEmptyDurableTx, L::kExample,
      P::kStudied, D::kStatic, 0, "perf.empty-durable-tx",
      "Durable transaction without persistent writes", "pmdk/pminvaders");
  add("pminvaders.c", 301, F::kPmdk, C::kEmptyDurableTx, L::kExample,
      P::kStudied, D::kStatic, 0, "perf.empty-durable-tx",
      "Durable transaction without persistent writes", "pmdk/pminvaders");
  add("pminvaders.c", 246, F::kPmdk, C::kFlushUnmodified, L::kExample,
      P::kStudied, D::kStatic, 0, "perf.flush-unmodified",
      "Flush unmodified fields of an object", "pmdk/pminvaders");
  add("pminvaders.c", 143, F::kPmdk, C::kPersistSameObjectInTx, L::kExample,
      P::kStudied, D::kStatic, 0, "perf.persist-same-object",
      "Persist the same object repeatedly in a transaction",
      "pmdk/pminvaders");
  add("obj_pmemlog.c", 91, F::kPmdk, C::kSemanticMismatch, L::kLib,
      P::kStudied, D::kStatic, 0, "model.semantic-mismatch",
      "Multiple epochs writing to different fields of an object",
      "pmdk/obj_pmemlog");
  add("hash_map.c", 120, F::kPmdk, C::kSemanticMismatch, L::kExample,
      P::kStudied, D::kStatic, 0, "model.semantic-mismatch",
      "Multiple epochs writing to different fields of an object",
      "pmdk/hash_map");
  add("hash_map.c", 264, F::kPmdk, C::kSemanticMismatch, L::kExample,
      P::kStudied, D::kStatic, 0, "model.semantic-mismatch",
      "Multiple epochs writing to different fields of an object",
      "pmdk/hash_map");
  // --- new (Table 8, PMDK v1.2, 4.4 years) ---
  add("btree_map.c", 365, F::kPmdk, C::kPersistSameObjectInTx, L::kExample,
      P::kNewlyFound, D::kStatic, 4.4, "perf.persist-same-object",
      "Object persisted repeatedly within one transaction",
      "pmdk/btree_map");
  add("btree_map.c", 465, F::kPmdk, C::kMultipleFlushes, L::kExample,
      P::kNewlyFound, D::kStatic, 4.4, "perf.redundant-flush",
      "Redundant flush of tree node", "pmdk/btree_map");
  add("rbtree_map.c", 259, F::kPmdk, C::kPersistSameObjectInTx, L::kExample,
      P::kNewlyFound, D::kStatic, 4.4, "perf.persist-same-object",
      "Object persisted repeatedly within one transaction",
      "pmdk/rbtree_map");
  add("pminvaders.c", 249, F::kPmdk, C::kEmptyDurableTx, L::kExample,
      P::kNewlyFound, D::kStatic, 4.4, "perf.empty-durable-tx",
      "Durable transaction without persistent writes", "pmdk/pminvaders");
  add("pminvaders.c", 266, F::kPmdk, C::kEmptyDurableTx, L::kExample,
      P::kNewlyFound, D::kStatic, 4.4, "perf.empty-durable-tx",
      "Durable transaction without persistent writes", "pmdk/pminvaders");
  add("pminvaders.c", 351, F::kPmdk, C::kEmptyDurableTx, L::kExample,
      P::kNewlyFound, D::kStatic, 4.4, "perf.empty-durable-tx",
      "Durable transaction without persistent writes", "pmdk/pminvaders");
  add("hashmap_atomic.c", 120, F::kPmdk, C::kSemanticMismatch, L::kExample,
      P::kNewlyFound, D::kDynamic, 4.4, "rt.epoch-mismatch",
      "Multiple epochs write to different fields of an object",
      "pmdk/hashmap_atomic");
  add("hashmap_atomic.c", 264, F::kPmdk, C::kSemanticMismatch, L::kExample,
      P::kNewlyFound, D::kDynamic, 4.4, "rt.epoch-mismatch",
      "Multiple epochs write to different fields of an object",
      "pmdk/hashmap_atomic");
  add("hashmap_atomic.c", 285, F::kPmdk, C::kMultipleFlushes, L::kExample,
      P::kNewlyFound, D::kDynamic, 4.4, "rt.redundant-flush",
      "Redundant flush of bucket data (runtime-resolved address)",
      "pmdk/hashmap_atomic");
  add("hashmap_atomic.c", 496, F::kPmdk, C::kMissingBarrier, L::kExample,
      P::kNewlyFound, D::kDynamic, 4.4, "rt.missing-barrier",
      "Missing persist barrier before atomic update step",
      "pmdk/hashmap_atomic");
  add("obj_pmemlog_simple.c", 207, F::kPmdk, C::kSemanticMismatch, L::kLib,
      P::kNewlyFound, D::kDynamic, 4.4, "rt.epoch-mismatch",
      "Multiple epochs write to different fields of an object",
      "pmdk/obj_pmemlog_simple");
  add("obj_pmemlog_simple.c", 252, F::kPmdk, C::kMultipleFlushes, L::kLib,
      P::kNewlyFound, D::kDynamic, 4.4, "rt.redundant-flush",
      "Redundant flush of log header (runtime-resolved address)",
      "pmdk/obj_pmemlog_simple");
  // --- false positives ---
  add("btree_map.c", 290, F::kPmdk, C::kUnflushedWrite, L::kExample,
      P::kFalsePositive, D::kStatic, 0, "strict.unflushed-write",
      "Write flushed inside an external helper the analysis cannot see",
      "pmdk/btree_map");
  add("hash_map.c", 310, F::kPmdk, C::kSemanticMismatch, L::kExample,
      P::kFalsePositive, D::kStatic, 0, "model.semantic-mismatch",
      "Distinct objects merged by context-insensitive helper summary",
      "pmdk/hash_map");
  add("obj_pmemlog.c", 130, F::kPmdk, C::kMultipleFlushes, L::kLib,
      P::kFalsePositive, D::kStatic, 0, "perf.redundant-flush",
      "Dynamically-indexed buffers conservatively treated as overlapping",
      "pmdk/obj_pmemlog");

  // =========================================================================
  // PMFS (epoch persistency) — 11 warnings: 9 validated (5 studied + 4 new)
  // + 2 false positives.
  // =========================================================================
  add("journal.c", 632, F::kPmfs, C::kMultipleFlushes, L::kLib, P::kStudied,
      D::kStatic, 0, "perf.redundant-flush",
      "Flush redundant data when committing", "pmfs/journal");
  add("symlink.c", 38, F::kPmfs, C::kMissingBarrierNested, L::kLib,
      P::kStudied, D::kStatic, 0, "epoch.missing-barrier-nested",
      "Missing persistent barrier in nested transaction", "pmfs/symlink");
  add("xips.c", 207, F::kPmfs, C::kMultipleFlushes, L::kLib, P::kStudied,
      D::kStatic, 0, "perf.redundant-flush",
      "Flush the same buffer multiple times", "pmfs/xips");
  add("xips.c", 262, F::kPmfs, C::kMultipleFlushes, L::kLib, P::kStudied,
      D::kStatic, 0, "perf.redundant-flush",
      "Flush the same buffer multiple times", "pmfs/xips");
  add("files.c", 232, F::kPmfs, C::kFlushUnmodified, L::kLib, P::kStudied,
      D::kStatic, 0, "perf.flush-unmodified", "Flush unmodified object",
      "pmfs/files");
  // --- new (Table 8, 3.2 years) ---
  add("super.c", 542, F::kPmfs, C::kFlushUnmodified, L::kLib, P::kNewlyFound,
      D::kStatic, 3.2, "perf.flush-unmodified",
      "Flushing unmodified fields of an object", "pmfs/super");
  add("super.c", 543, F::kPmfs, C::kFlushUnmodified, L::kLib, P::kNewlyFound,
      D::kStatic, 3.2, "perf.flush-unmodified",
      "Flushing unmodified fields of an object", "pmfs/super");
  add("super.c", 579, F::kPmfs, C::kFlushUnmodified, L::kLib, P::kNewlyFound,
      D::kStatic, 3.2, "perf.flush-unmodified",
      "Flushing unmodified fields of an object", "pmfs/super");
  add("super.c", 584, F::kPmfs, C::kMultipleWritesAtOnce, L::kLib,
      P::kNewlyFound, D::kStatic, 3.2, "strict.multiple-writes",
      "Both superblock copies made durable by a single barrier",
      "pmfs/super");
  // --- false positives ---
  add("bbuild.c", 210, F::kPmfs, C::kMultipleWritesAtOnce, L::kLib,
      P::kFalsePositive, D::kStatic, 0, "strict.multiple-writes",
      "Version-guarded double update; single barrier is intentional",
      "pmfs/bbuild");
  add("inode.c", 150, F::kPmfs, C::kFlushUnmodified, L::kLib,
      P::kFalsePositive, D::kStatic, 0, "perf.flush-unmodified",
      "Object modified inside an external function the analysis cannot see",
      "pmfs/inode");

  // =========================================================================
  // NVM-Direct (strict persistency) — 9 warnings: 7 validated (3 studied +
  // 4 new) + 2 false positives.
  // =========================================================================
  add("nvm_region.c", 614, F::kNvmDirect, C::kMissingBarrier, L::kLib,
      P::kStudied, D::kStatic, 0, "strict.missing-barrier",
      "Missing persist barrier between epoch transactions",
      "nvmdirect/nvm_region");
  add("nvm_region.c", 933, F::kNvmDirect, C::kMissingBarrier, L::kLib,
      P::kStudied, D::kStatic, 0, "strict.missing-barrier",
      "Missing persist barrier between epoch transactions",
      "nvmdirect/nvm_region");
  add("nvm_heap.c", 1965, F::kNvmDirect, C::kMultipleFlushes, L::kLib,
      P::kStudied, D::kStatic, 0, "perf.redundant-flush",
      "Redundant flushes of persistent object", "nvmdirect/nvm_heap");
  // --- new (Table 8, v0.3, 5.3 years) ---
  add("nvm_locks.c", 905, F::kNvmDirect, C::kEmptyDurableTx, L::kLib,
      P::kNewlyFound, D::kStatic, 5.3, "perf.empty-durable-tx",
      "Durable transaction without persistent writes", "nvmdirect/nvm_locks");
  add("nvm_locks.c", 1411, F::kNvmDirect, C::kFlushUnmodified, L::kLib,
      P::kNewlyFound, D::kStatic, 5.3, "perf.flush-unmodified",
      "Flushing unmodified fields of an object", "nvmdirect/nvm_locks");
  add("nvm_locks.c", 932, F::kNvmDirect, C::kUnflushedWrite, L::kLib,
      P::kNewlyFound, D::kStatic, 5.3, "strict.unflushed-write",
      "Missing flush", "nvmdirect/nvm_locks");
  add("nvm_heap.c", 1675, F::kNvmDirect, C::kFlushUnmodified, L::kLib,
      P::kNewlyFound, D::kStatic, 5.3, "perf.flush-unmodified",
      "Flushing unmodified fields of an object", "nvmdirect/nvm_heap");
  // --- false positives ---
  add("nvm_region.c", 700, F::kNvmDirect, C::kFlushUnmodified, L::kLib,
      P::kFalsePositive, D::kStatic, 0, "perf.flush-unmodified",
      "Region initialized by an external function the analysis cannot see",
      "nvmdirect/nvm_region");
  add("nvm_tx.c", 450, F::kNvmDirect, C::kEmptyDurableTx, L::kLib,
      P::kFalsePositive, D::kStatic, 0, "perf.empty-durable-tx",
      "Undo records applied by an external function; tx is not empty",
      "nvmdirect/nvm_tx");

  // =========================================================================
  // Mnemosyne (epoch persistency) — 4 warnings, all validated new bugs
  // (Table 8, 10.0 years).
  // =========================================================================
  add("phlog_base.c", 132, F::kMnemosyne, C::kUnflushedWrite, L::kLib,
      P::kNewlyFound, D::kStatic, 10.0, "epoch.unflushed-write",
      "Unflushed write", "mnemosyne/phlog_base");
  add("chhash.c", 185, F::kMnemosyne, C::kPersistSameObjectInTx, L::kLib,
      P::kNewlyFound, D::kStatic, 10.0, "perf.persist-same-object",
      "Multiple writes to the same object in a transaction",
      "mnemosyne/chhash");
  add("chhash.c", 270, F::kMnemosyne, C::kPersistSameObjectInTx, L::kLib,
      P::kNewlyFound, D::kStatic, 10.0, "perf.persist-same-object",
      "Multiple writes to the same object in a transaction",
      "mnemosyne/chhash");
  add("CHash.c", 150, F::kMnemosyne, C::kMultipleFlushes, L::kLib,
      P::kNewlyFound, D::kStatic, 10.0, "perf.redundant-flush",
      "Multiple flushes to a persistent object", "mnemosyne/CHash");

  return r;
}

}  // namespace

const std::vector<BugSite>& registry() {
  static const std::vector<BugSite> r = make_registry();
  return r;
}

std::vector<const BugSite*> sites_of(Framework f) {
  std::vector<const BugSite*> out;
  for (const BugSite& s : registry())
    if (s.framework == f) out.push_back(&s);
  return out;
}

std::vector<const BugSite*> sites_of(Provenance p) {
  std::vector<const BugSite*> out;
  for (const BugSite& s : registry())
    if (s.provenance == p) out.push_back(&s);
  return out;
}

std::vector<const BugSite*> static_sites() {
  std::vector<const BugSite*> out;
  for (const BugSite& s : registry())
    if (s.detector == Detector::kStatic) out.push_back(&s);
  return out;
}

std::vector<const BugSite*> dynamic_sites() {
  std::vector<const BugSite*> out;
  for (const BugSite& s : registry())
    if (s.detector == Detector::kDynamic) out.push_back(&s);
  return out;
}

}  // namespace deepmc::corpus
