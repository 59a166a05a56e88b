// Crash-state enumeration engine tests: event recording, store-lifecycle
// replay, reachable-image enumeration (both granularities), trace-oracle
// witnesses, recovery-oracle classification, and the end-to-end warning
// validation matrix over the corpus (the paper's Table 8 "validated"
// column, reproduced mechanically).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/analysis_driver.h"
#include "corpus/clean_programs.h"
#include "corpus/corpus.h"
#include "crash/crashsim.h"
#include "crash/enumerator.h"
#include "crash/event_log.h"
#include "crash/recovery_oracle.h"
#include "crash/trace_oracle.h"
#include "frameworks/pmdk_mini.h"
#include "ir/parser.h"
#include "pmem/pool.h"

namespace deepmc {
namespace {

using core::AnalysisDriver;
using core::AnalysisUnit;
using core::DriverOptions;
using core::Report;
using core::Validation;

pmem::PmPool make_pool() {
  return pmem::PmPool(1 << 20, pmem::LatencyModel::zero());
}

// ---------------------------------------------------------------------------
// Event recording
// ---------------------------------------------------------------------------

TEST(EventRecorder, CapturesPoolEventsAndBaselines) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(64);
  pool.store_val<uint64_t>(a, 7);
  pool.flush(a, 8);
  pool.fence();

  const crash::EventLog& log = rec.log();
  ASSERT_EQ(log.events.size(), 3u);
  EXPECT_EQ(log.events[0].kind, crash::EventKind::kStore);
  EXPECT_EQ(log.events[0].off, a);
  EXPECT_EQ(log.events[0].size, 8u);
  EXPECT_EQ(log.events[0].alloc_base, a);
  EXPECT_EQ(log.events[1].kind, crash::EventKind::kFlush);
  EXPECT_EQ(log.events[2].kind, crash::EventKind::kFence);
  EXPECT_TRUE(log.line_bases.count(a / pmem::kCachelineBytes));
  EXPECT_EQ(log.counted_events(), 3u);
}

TEST(EventRecorder, DetachStopsRecording) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(64);
  pool.store_val<uint64_t>(a, 1);
  rec.detach();
  pool.store_val<uint64_t>(a, 2);
  EXPECT_EQ(rec.log().events.size(), 1u);
}

TEST(EventRecorder, MemsetPersistStoreIsUncounted) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(64);
  pool.memset_persist(a, 0xab, 16);
  const crash::EventLog& log = rec.log();
  // memset store (uncounted) + flush + fence from persist().
  ASSERT_EQ(log.events.size(), 3u);
  EXPECT_FALSE(log.events[0].counted);
  EXPECT_EQ(log.counted_events(), 2u);
}

TEST(EventRecorder, ZeroSizeFlushIsCounted) {
  // The log counts every event the pool counts, so crash point n and
  // inject_fault_after(n) name the same event.
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(64);
  const uint64_t before = pool.event_count();
  pool.store_val<uint64_t>(a, 1);
  pool.flush(a, 0);
  pool.flush(a, 8);
  pool.fence();
  const crash::EventLog& log = rec.log();
  EXPECT_EQ(pool.event_count() - before, 4u);
  EXPECT_EQ(log.counted_events(), 4u);
  ASSERT_EQ(log.events.size(), 4u);
  EXPECT_EQ(log.events[1].kind, crash::EventKind::kFlush);
  EXPECT_EQ(log.events[1].size, 0u);
}

// ---------------------------------------------------------------------------
// Store-lifecycle replay
// ---------------------------------------------------------------------------

TEST(StoreReplay, TracksStagingAndDurability) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(128);
  pool.store_val<uint64_t>(a, 1);       // event 0
  pool.flush(a, 8);                     // event 1
  pool.store_val<uint64_t>(a + 64, 2);  // event 2, never flushed
  pool.fence();                         // event 3

  crash::StoreReplay replay(rec.log());
  ASSERT_EQ(replay.units().size(), 2u);
  const crash::StoreUnit& fenced = replay.units()[0];
  EXPECT_EQ(fenced.staged_at, 1u);
  EXPECT_EQ(fenced.durable_at, 3u);
  const crash::StoreUnit& dirty = replay.units()[1];
  EXPECT_EQ(dirty.staged_at, crash::kNoEvent);
  EXPECT_EQ(dirty.durable_at, crash::kNoEvent);
  EXPECT_TRUE(dirty.dirty_at(4));
  ASSERT_EQ(replay.fences().size(), 1u);
  EXPECT_EQ(replay.fences()[0], 3u);
}

TEST(StoreReplay, ZeroSizeFlushStagesNothing) {
  // A zero-byte flush inside a store's range covers none of its bytes.
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(64);
  const uint8_t bytes[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14};
  pool.store(a, bytes, sizeof(bytes));  // event 0
  pool.flush(a + 8, 0);                 // event 1
  pool.fence();                         // event 2

  crash::StoreReplay replay(rec.log());
  ASSERT_EQ(rec.log().events.size(), 3u);
  ASSERT_EQ(replay.units().size(), 1u);
  EXPECT_EQ(replay.units()[0].staged_at, crash::kNoEvent);
  EXPECT_EQ(replay.units()[0].durable_at, crash::kNoEvent);
}

TEST(StoreReplay, ImageAtAppliesDurableThenExtras) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(128);
  pool.store_val<uint64_t>(a, 11);
  pool.persist(a, 8);                    // staged + fenced: durable
  pool.store_val<uint64_t>(a + 64, 22);  // dirty forever

  crash::StoreReplay replay(rec.log());
  const size_t end = rec.log().events.size();
  const crash::CrashImage base = replay.image_at(end, {});
  const uint64_t line_a = a / pmem::kCachelineBytes;
  uint64_t v = 0;
  std::memcpy(&v, base.lines.at(line_a).data() + a % pmem::kCachelineBytes, 8);
  EXPECT_EQ(v, 11u);  // durable store present in the empty-subset image
  std::memcpy(&v, base.lines.at(line_a + 1).data(), 8);
  EXPECT_EQ(v, 0u);  // dirty store absent

  const crash::CrashImage with = replay.image_at(end, {1});
  std::memcpy(&v, with.lines.at(line_a + 1).data(), 8);
  EXPECT_EQ(v, 22u);  // selected in-flight unit applied
  EXPECT_NE(with.digest, base.digest);
}

// ---------------------------------------------------------------------------
// Enumerator
// ---------------------------------------------------------------------------

TEST(Enumerator, EnumeratesAllSubsetsOfPendingLines) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(128);  // two cachelines
  pool.store_val<uint64_t>(a, 1);
  pool.store_val<uint64_t>(a + 64, 2);
  pool.flush(a, 128);
  pool.fence();

  crash::Enumerator::Options opts;
  opts.granularity = crash::Granularity::kCacheline;
  opts.include_dirty = false;
  crash::Enumerator en(rec.log(), opts);
  // At the crash point right before the fence both lines are staged:
  // 2^2 = 4 subset images at that point.
  size_t at_fence = 0;
  auto stats = en.enumerate([&](const crash::CrashImage& img) {
    if (img.point == 3) ++at_fence;
  });
  EXPECT_EQ(at_fence, 4u);
  EXPECT_GE(stats.images, 4u);
  EXPECT_GT(stats.crash_points, 0u);
}

TEST(Enumerator, DeterministicAcrossRuns) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(256);
  for (int i = 0; i < 3; ++i) {
    pool.store_val<uint64_t>(a + 64 * static_cast<uint64_t>(i), 100 + i);
    pool.flush(a + 64 * static_cast<uint64_t>(i), 8);
  }
  pool.fence();
  pool.store_val<uint64_t>(a + 192, 9);  // left dirty

  for (auto gran :
       {crash::Granularity::kStoreRange, crash::Granularity::kCacheline}) {
    crash::Enumerator::Options opts;
    opts.granularity = gran;
    crash::Enumerator en(rec.log(), opts);
    std::vector<uint64_t> first, second;
    auto s1 = en.enumerate(
        [&](const crash::CrashImage& img) { first.push_back(img.digest); });
    auto s2 = en.enumerate(
        [&](const crash::CrashImage& img) { second.push_back(img.digest); });
    EXPECT_EQ(first, second);
    EXPECT_EQ(s1.images, s2.images);
    EXPECT_EQ(s1.points_pruned, s2.points_pruned);
  }
}

TEST(Enumerator, SubsetCapFallsBackToBoundaryFamily) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(64 * 8);
  for (uint64_t i = 0; i < 6; ++i) {
    pool.store_val<uint64_t>(a + 64 * i, i);
    pool.flush(a + 64 * i, 8);
  }
  pool.fence();

  crash::Enumerator::Options opts;
  opts.granularity = crash::Granularity::kCacheline;
  opts.include_dirty = false;
  opts.max_subset_bits = 3;  // 6 pending lines exceed the cap
  crash::Enumerator en(rec.log(), opts);
  auto stats = en.enumerate([](const crash::CrashImage&) {});
  EXPECT_GT(stats.capped_points, 0u);
  // Boundary family: empty + full + 6 singletons + 6 leave-one-outs = 14,
  // far fewer than 2^6; the ratio reflects the saved work.
  EXPECT_GT(stats.pruning_ratio(), 0.5);
}

TEST(Enumerator, CommitPointPruningSkipsQuiescentPoints) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  const uint64_t a = pool.alloc(64);
  pool.store_val<uint64_t>(a, 1);
  pool.persist(a, 8);
  // Three loads-only... simulate no-op events by flushing clean range:
  pool.flush(a, 8);  // redundant: nothing dirty, nothing staged afterwards
  pool.flush(a, 8);

  crash::Enumerator en(rec.log(), {});
  auto stats = en.enumerate([](const crash::CrashImage&) {});
  EXPECT_GT(stats.points_pruned, 0u);
  EXPECT_EQ(stats.points_enumerated + stats.points_pruned,
            stats.crash_points);
}

// ---------------------------------------------------------------------------
// Trace oracle (via simulate_root on small MIR programs)
// ---------------------------------------------------------------------------

crash::RootCrashSim simulate(const std::string& mir, const std::string& fn,
                             crash::CrashSimOptions opts = {}) {
  auto module = ir::parse_module(mir);
  const ir::Function* f = module->find_function(fn);
  EXPECT_NE(f, nullptr);
  return crash::simulate_root(*module, *f, opts);
}

bool has_witness(const crash::RootCrashSim& sim, const std::string& rule,
                 const std::string& file, uint32_t line) {
  for (const crash::Witness& w : sim.witnesses) {
    if (w.rule != rule) continue;
    for (const SourceLoc& loc : w.culprits)
      if (loc.file == file && loc.line == line) return true;
  }
  return false;
}

TEST(TraceOracle, RollbackExposureInsideLoggingTx) {
  const char* mir = R"(
module "m"
struct %obj { i64, i64 }

define void @root() {
entry:
  %o = pm.alloc %obj
  tx.begin !loc("m.c", 10)
  tx.add %o, 8
  %f0 = gep %o, 0
  store i64 1, %f0 !loc("m.c", 11)
  %f1 = gep %o, 1
  store i64 2, %f1 !loc("m.c", 12)
  pm.fence
  tx.end
  ret
}
)";
  crash::RootCrashSim sim = simulate(mir, "root");
  ASSERT_TRUE(sim.executed) << sim.error;
  // f1 is written without tx.add coverage; f0 is logged.
  EXPECT_TRUE(has_witness(sim, "crash.rollback-exposure", "m.c", 12));
  EXPECT_FALSE(has_witness(sim, "crash.rollback-exposure", "m.c", 11));
}

TEST(TraceOracle, UnfencedAtEndOfRun) {
  const char* mir = R"(
module "m"
struct %obj { i64 }

define void @root() {
entry:
  %o = pm.alloc %obj
  %f = gep %o, 0
  store i64 3, %f !loc("m.c", 20)
  pm.flush %f, 8 !loc("m.c", 21)
  ret
}
)";
  crash::RootCrashSim sim = simulate(mir, "root");
  ASSERT_TRUE(sim.executed) << sim.error;
  EXPECT_TRUE(has_witness(sim, "crash.unfenced-boundary", "m.c", 20));
}

TEST(TraceOracle, ProperlyPersistedStoreProducesNoWitness) {
  const char* mir = R"(
module "m"
struct %obj { i64 }

define void @root() {
entry:
  %o = pm.alloc %obj
  %f = gep %o, 0
  store i64 3, %f !loc("m.c", 30)
  pm.persist %f, 8 !loc("m.c", 31)
  ret
}
)";
  crash::RootCrashSim sim = simulate(mir, "root");
  ASSERT_TRUE(sim.executed) << sim.error;
  EXPECT_TRUE(sim.witnesses.empty());
}

TEST(TraceOracle, BareStoreWithNoDurabilityIntentAbstains) {
  const char* mir = R"(
module "m"
struct %obj { i64 }

define void @root() {
entry:
  %o = pm.alloc %obj
  %f = gep %o, 0
  store i64 3, %f !loc("m.c", 40)
  ret
}
)";
  crash::RootCrashSim sim = simulate(mir, "root");
  ASSERT_TRUE(sim.executed) << sim.error;
  // No flush, no region, no later durable store: no contract to violate.
  EXPECT_TRUE(sim.witnesses.empty());
}

TEST(CrashsimRoot, OversizedMemsetReportsThePoolError) {
  // The range is checked before a buffer of the requested size is built,
  // so the root fails with the pool's error, not an allocation failure.
  const char* mir = R"(
module "m"
struct %obj { i64 }

define void @root() {
entry:
  %o = pm.alloc %obj
  memset %o, 0, 1125899906842624 !loc("m.c", 50)
  ret
}
)";
  crash::RootCrashSim sim = simulate(mir, "root");
  EXPECT_FALSE(sim.executed);
  EXPECT_EQ(sim.error, "PmPool: access beyond pool end");
}

// ---------------------------------------------------------------------------
// Recovery oracles
// ---------------------------------------------------------------------------

TEST(RecoveryOracle, PmdkLoggedProtocolIsConsistentOnEveryImage) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  pmdk::ObjPool obj(pool);
  // Seed the undo log inside the recorded window so every image carries
  // the log's pool-header slot.
  const uint64_t a = obj.alloc(128);
  {
    pmdk::Tx tx(obj);
    tx.add(a, 128);
    tx.write_val<uint64_t>(a, 41);
    tx.write_val<uint64_t>(a + 64, 42);
    tx.commit();
  }
  rec.detach();

  crash::Enumerator::Options eopts;
  eopts.granularity = crash::Granularity::kCacheline;
  eopts.include_dirty = false;
  crash::Enumerator en(rec.log(), eopts);
  auto oracle = crash::make_pmdk_oracle();
  // Invariant: the two fields commit atomically — both old or both new.
  crash::Invariant both_or_neither = [a](pmem::PmPool& pm) {
    const uint64_t v0 = pm.load_val<uint64_t>(a);
    const uint64_t v1 = pm.load_val<uint64_t>(a + 64);
    return (v0 == 0 && v1 == 0) || (v0 == 41 && v1 == 42);
  };
  size_t images = 0, inconsistent = 0;
  en.enumerate([&](const crash::CrashImage& img) {
    ++images;
    pmem::PmPool replay = make_pool();
    if (oracle->classify(replay, img, both_or_neither) ==
        crash::RecoveryOutcome::kInconsistent)
      ++inconsistent;
  });
  EXPECT_GT(images, 4u);
  EXPECT_EQ(inconsistent, 0u) << "undo logging must make every reachable "
                                 "crash image recoverable";
}

TEST(RecoveryOracle, UnloggedTwoFieldUpdateHasInconsistentImages) {
  pmem::PmPool pool = make_pool();
  crash::EventRecorder rec(pool);
  pmdk::ObjPool obj(pool);
  const uint64_t a = obj.alloc(128);
  {
    // Seed the undo log so replayed recovery finds (and ignores) it.
    pmdk::Tx tx(obj);
    tx.add(a, 8);
    tx.write_val<uint64_t>(a, 0);
    tx.commit();
  }
  // The Figure 2 pattern: two fields updated with no logging, one fence.
  pool.store_val<uint64_t>(a, 41);
  pool.store_val<uint64_t>(a + 64, 42);
  pool.flush(a, 128);
  pool.fence();
  rec.detach();

  crash::Enumerator::Options eopts;
  eopts.granularity = crash::Granularity::kCacheline;
  eopts.include_dirty = false;
  crash::Enumerator en(rec.log(), eopts);
  auto oracle = crash::make_pmdk_oracle();
  crash::Invariant both_or_neither = [a](pmem::PmPool& pm) {
    const uint64_t v0 = pm.load_val<uint64_t>(a);
    const uint64_t v1 = pm.load_val<uint64_t>(a + 64);
    return (v0 == 0 && v1 == 0) || (v0 == 41 && v1 == 42);
  };
  size_t inconsistent = 0;
  en.enumerate([&](const crash::CrashImage& img) {
    pmem::PmPool replay = make_pool();
    if (oracle->classify(replay, img, both_or_neither) ==
        crash::RecoveryOutcome::kInconsistent)
      ++inconsistent;
  });
  EXPECT_GT(inconsistent, 0u)
      << "a torn unlogged update must be reachable and unrecoverable";
}

TEST(RecoveryOracle, MakeOracleKnowsAllFrameworks) {
  for (const char* fw :
       {"pmdk_mini", "pmfs_mini", "mnemosyne_mini", "nvmdirect_mini"}) {
    auto oracle = crash::make_oracle(fw);
    ASSERT_NE(oracle, nullptr) << fw;
    EXPECT_EQ(oracle->name(), fw);
  }
  EXPECT_EQ(crash::make_oracle("unknown"), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end validation matrix over the corpus
// ---------------------------------------------------------------------------

Report run_crashsim_sweep(size_t jobs) {
  DriverOptions opts;
  opts.crashsim = true;
  opts.jobs = jobs;
  std::vector<AnalysisUnit> units;
  for (const std::string& name : corpus::module_names())
    units.push_back(core::make_corpus_unit(name));
  AnalysisDriver driver(opts);
  return driver.run(units);
}

TEST(CrashsimValidation, CorpusMatrixMatchesThePaper) {
  const Report report = run_crashsim_sweep(0);

  // The paper's validated true positives: every one must be confirmed by
  // at least one enumerated crash image.
  const std::set<std::pair<std::string, uint32_t>> expect_confirmed = {
      {"btree_map.c", 201},  {"rbtree_map.c", 379}, {"hash_map.c", 120},
      {"hash_map.c", 264},   {"obj_pmemlog.c", 91}, {"nvm_region.c", 614},
      {"nvm_region.c", 933}, {"nvm_locks.c", 932},  {"phlog_base.c", 132},
      {"symlink.c", 38},     {"super.c", 584},
  };
  // Known false positives: the warned line executes, but no reachable
  // crash image misbehaves (paper §6.2's "not validated" rows).
  const std::set<std::pair<std::string, uint32_t>> expect_not_reproduced = {
      {"btree_map.c", 290},
      {"hash_map.c", 310},
      {"bbuild.c", 210},
  };

  std::set<std::pair<std::string, uint32_t>> confirmed, not_reproduced;
  for (const core::UnitReport& u : report.units()) {
    ASSERT_FALSE(u.failed) << u.name << ": " << u.error;
    ASSERT_TRUE(u.crashsim.ran);
    const auto& ws = u.result.warnings();
    ASSERT_EQ(u.crashsim.validations.size(), ws.size()) << u.name;
    for (size_t i = 0; i < ws.size(); ++i) {
      const auto key = std::make_pair(ws[i].loc.file, ws[i].loc.line);
      switch (u.crashsim.validations[i]) {
        case Validation::kConfirmed:
          confirmed.insert(key);
          // Only model-violation warnings can be confirmed.
          EXPECT_EQ(ws[i].bug_class(), core::BugClass::kModelViolation);
          break;
        case Validation::kNotReproduced:
          not_reproduced.insert(key);
          break;
        case Validation::kSkipped:
          // A validated true positive must never end up skipped (perf
          // warnings may share a source line with one, hence the guard).
          if (ws[i].bug_class() == core::BugClass::kModelViolation) {
            EXPECT_FALSE(expect_confirmed.count(key))
                << u.name << " " << ws[i].rule;
          }
          break;
      }
    }
  }
  EXPECT_EQ(confirmed, expect_confirmed);
  EXPECT_EQ(not_reproduced, expect_not_reproduced);
}

TEST(CrashsimValidation, FixedModulesConfirmNothing) {
  DriverOptions opts;
  opts.crashsim = true;
  std::vector<AnalysisUnit> units;
  for (const std::string& name : corpus::fixed_module_names()) {
    AnalysisUnit u;
    u.name = name;
    u.build = [name] {
      corpus::CorpusModule cm = corpus::build_module(name);
      core::BuiltUnit b;
      b.module = corpus::build_fixed_module(name);
      b.model = corpus::framework_model(cm.framework);
      return b;
    };
    units.push_back(std::move(u));
  }
  AnalysisDriver driver(opts);
  const Report report = driver.run(units);
  for (const core::UnitReport& u : report.units()) {
    ASSERT_FALSE(u.failed) << u.name << ": " << u.error;
    EXPECT_EQ(u.crashsim.confirmed, 0u)
        << u.name << ": fixed code must not be confirmable";
  }
}

TEST(CrashsimValidation, CleanProgramsConfirmNothing) {
  DriverOptions opts;
  opts.crashsim = true;
  std::vector<AnalysisUnit> units;
  for (const std::string& name : corpus::clean_program_names()) {
    AnalysisUnit u;
    u.name = name;
    u.build = [name] {
      corpus::CleanProgram p = corpus::build_clean_program(name);
      core::BuiltUnit b;
      b.module = std::move(p.module);
      b.model = p.model;
      return b;
    };
    units.push_back(std::move(u));
  }
  AnalysisDriver driver(opts);
  const Report report = driver.run(units);
  for (const core::UnitReport& u : report.units()) {
    ASSERT_FALSE(u.failed) << u.name << ": " << u.error;
    EXPECT_EQ(u.result.count(), 0u) << u.name;
    EXPECT_EQ(u.crashsim.confirmed, 0u) << u.name;
  }
}

TEST(CrashsimValidation, OutputIsIdenticalAcrossJobCounts) {
  const Report serial = run_crashsim_sweep(1);
  const Report parallel = run_crashsim_sweep(8);
  EXPECT_EQ(serial.text(), parallel.text());
  EXPECT_EQ(serial.json(/*include_timing=*/false),
            parallel.json(/*include_timing=*/false));
}

TEST(CrashsimValidation, JsonCarriesValidationAndCrashsimObject) {
  DriverOptions opts;
  opts.crashsim = true;
  AnalysisDriver driver(opts);
  const Report report = driver.run({core::make_corpus_unit("pmdk/btree_map")});
  const std::string json = report.json(/*include_timing=*/false);
  EXPECT_NE(json.find("\"schema\": \"deepmc-report-v3\""), std::string::npos);
  EXPECT_NE(json.find("\"validation\": \"confirmed\""), std::string::npos);
  EXPECT_NE(json.find("\"crashsim\": {"), std::string::npos);
  EXPECT_NE(json.find("\"framework\": \"pmdk_mini\""), std::string::npos);
  EXPECT_NE(json.find("\"pruning_ratio\""), std::string::npos);
}

TEST(CrashsimValidation, OffByDefaultKeepsV1ShapedPayload) {
  AnalysisDriver driver(DriverOptions{});
  const Report report = driver.run({core::make_corpus_unit("pmdk/btree_map")});
  const std::string json = report.json(false);
  EXPECT_EQ(json.find("\"crashsim\""), std::string::npos);
  EXPECT_EQ(json.find("\"validation\""), std::string::npos);
  EXPECT_EQ(report.units()[0].crashsim.ran, false);
}

}  // namespace
}  // namespace deepmc
