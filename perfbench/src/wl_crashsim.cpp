// gen-crashsim: batches of seeded generated programs, each with its
// planted-bug manifest, through one AnalysisDriver::run with crashsim on —
// the shape of `deepmc --crashsim` in CI. The manifests are the answer key.
//
// Untraced: rounds of (generate a batch, analyze it) until the time is
// up; throughput is the median over rounds. Traced: the same rounds, then
// the first batch once more with every layer called directly under spans
// — the static path, then per executable root what crash::simulate_root
// does (pool, interpreter with an EventRecorder, witness analysis,
// enumeration, recovery replay).
#include <algorithm>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis_driver.h"
#include "crash/enumerator.h"
#include "crash/event_log.h"
#include "crash/recovery_oracle.h"
#include "crash/trace_oracle.h"
#include "gen/generator.h"
#include "gen/score.h"
#include "interp/interp.h"
#include "layers.h"
#include "pmem/latency.h"
#include "pmem/pool.h"
#include "serve/hash.h"
#include "spans.h"
#include "support/rng.h"
#include "support/str.h"
#include "workloads.h"

namespace perfbench {

using namespace deepmc;

namespace {

/// Programs per driver run, analyzed at min(4, nproc) jobs. With the
/// allocator pinned (main.cpp) this is steady from round to round and
/// seed to seed (README.md "Baseline").
constexpr size_t kBatch = 1000;
constexpr int kMinRounds = 3;

/// The crash simulation's own constants (crash::CrashSimOptions defaults).
constexpr uint64_t kPoolBytes = 1ull << 22;
constexpr uint64_t kMaxSteps = 2'000'000;
constexpr size_t kMaxSubsetBits = 10;

struct Batch {
  std::vector<gen::GeneratedProgram> programs;
  double gen_s = 0;
};

Batch make_batch(uint64_t seed, size_t round) {
  Batch b;
  const double t0 = now_s();
  const uint64_t base = Rng(seed).next() >> 20;
  b.programs.reserve(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    gen::GenOptions opts;
    opts.seed = base + round * kBatch + i;
    gen::GeneratedProgram p = gen::generate_program(opts);
    p.module.reset();  // AnalysisDriver parses the text itself
    b.programs.push_back(std::move(p));
  }
  b.gen_s = now_s() - t0;
  return b;
}

std::vector<core::AnalysisUnit> units_of(const Batch& b) {
  std::vector<core::AnalysisUnit> units;
  units.reserve(b.programs.size());
  for (const gen::GeneratedProgram& p : b.programs)
    units.push_back(core::make_source_unit(p.name, p.text, p.model));
  return units;
}

/// Every static warning must match the manifest exactly, the unit must
/// be ok, and crashsim may confirm nothing the generator did not plant.
void check_unit(const gen::GeneratedProgram& p, const core::UnitReport& u,
                Result& out) {
  out.attempt();
  if (u.status != core::UnitStatus::kOk) {
    out.fail(p.name + ": unit " + core::unit_status_name(u.status) + " " +
             u.fail_reason + u.degraded.reason);
    return;
  }
  if (!u.crashsim.ran) {
    out.fail(p.name + ": crashsim did not run");
    return;
  }
  const gen::Score s = gen::score_program(p.manifest, gen::warnings_of(u));
  if (s.fp != 0 || s.fn != 0 || s.rule_mismatches != 0)
    out.fail(p.name + ": warnings differ from the manifest (fp " +
             std::to_string(s.fp) + ", fn " + std::to_string(s.fn) + ")");
  else if (s.confirmed_outside_manifest != 0)
    out.fail(p.name + ": crashsim confirmed a warning outside the manifest");
}

struct CrashTotals {
  uint64_t crash_points = 0, points_pruned = 0, images = 0;
  double subsets_materialized = 0;
  uint64_t duplicate_subsets = 0, images_inconsistent = 0;
  uint64_t pools_built = 0, pool_bytes_built = 0;
};

std::unique_ptr<pmem::PmPool> build_pool(CrashTotals& t) {
  Span s("pmem", "pmem.pool_init");
  ++t.pools_built;
  t.pool_bytes_built += kPoolBytes;
  return std::make_unique<pmem::PmPool>(kPoolBytes, pmem::LatencyModel::zero());
}

void free_pool(std::unique_ptr<pmem::PmPool>& pool) {
  Span s("pmem", "pmem.pool_free");
  pool.reset();
}

/// What crash::simulate_root does for one root, one call per span.
void simulate_root_traced(const ir::Module& module, const ir::Function& root,
                          core::PersistencyModel model, CrashTotals& t) {
  Span root_span("crash", "crash.simulate_root");
  std::unique_ptr<pmem::PmPool> pool = build_pool(t);
  crash::EventRecorder recorder(*pool);
  bool executed = false;
  {
    Span s("interp", "interp.execute");
    interp::Interpreter::Options iopts;
    iopts.max_steps = kMaxSteps;
    interp::Interpreter in(module, *pool, /*runtime=*/nullptr, iopts);
    try {
      in.run(root);
      executed = true;
    } catch (const std::exception&) {
      executed = false;  // a trapping root is reported, not enumerated
    }
  }
  recorder.detach();
  const crash::EventLog log = recorder.take_log();
  free_pool(pool);
  if (!executed) return;
  {
    Span s("crash", "crash.witness");
    (void)crash::analyze_log(log, model);
  }
  // Generated units carry no framework prefix, so like `deepmc --crashsim`
  // on them no recovery oracle applies; replay runs only if one does.
  const std::unique_ptr<crash::RecoveryOracle> oracle = crash::make_oracle("");
  crash::Enumerator::Options eopts;
  eopts.model = model;
  eopts.granularity = crash::Granularity::kStoreRange;
  eopts.include_dirty = true;
  eopts.max_subset_bits = kMaxSubsetBits;
  const crash::Enumerator enumerator(log, eopts);
  std::vector<crash::CrashImage> images;
  crash::Enumerator::Stats stats;
  {
    Span s("crash", "crash.enumerate");
    stats = enumerator.enumerate([&](const crash::CrashImage& image) {
      if (oracle) images.push_back(image);
    });
  }
  t.crash_points += stats.crash_points;
  t.points_pruned += stats.points_pruned;
  t.images += stats.images;
  t.subsets_materialized += stats.subsets_materialized;
  t.duplicate_subsets += stats.duplicate_subsets;
  for (const crash::CrashImage& image : images) {
    std::unique_ptr<pmem::PmPool> replay = build_pool(t);
    crash::RecoveryOutcome outcome;
    {
      Span s("crash", "crash.replay");
      outcome = oracle->classify(*replay, image, {});
    }
    if (outcome == crash::RecoveryOutcome::kInconsistent)
      ++t.images_inconsistent;
    free_pool(replay);
  }
}

void traced_pass(const Batch& batch, const core::Report& report,
                 Result& out) {
  (void)Tracer::take();
  Tracer::set_enabled(true);
  StaticTotals st;
  CrashTotals ct;
  for (const gen::GeneratedProgram& p : batch.programs) {
    Span program("bench", "program");
    StaticOutcome so = static_pass(p.text, p.model, st);
    if (!so.module) {
      out.fail(p.name + ": traced pass: " + so.error);
      continue;
    }
    for (const ir::Function* f : so.roots)
      if (!f->is_declaration() && f->arg_count() == 0)
        simulate_root_traced(*so.module, *f, p.model, ct);
  }
  {
    Span batch_span("bench", "render");
    Span s("core", "core.render");
    (void)report.json(false);
  }
  Tracer::set_enabled(false);
  const std::vector<SpanRec> spans = Tracer::take();

  emit_static_metrics(out, spans, st);
  out.metric("core.render_ms", span_ms(spans, "core.render"), "ms");
  out.metric("interp.execute_ms", span_ms(spans, "interp.execute"), "ms");
  out.metric("crash.witness_ms", span_ms(spans, "crash.witness"), "ms");
  out.metric("crash.enumerate_ms", span_ms(spans, "crash.enumerate"), "ms");
  out.metric("crash.replay_ms", span_ms(spans, "crash.replay"), "ms");
  out.metric("crash.simulate_root_ms", span_ms(spans, "crash.simulate_root"),
             "ms");
  out.metric("pmem.pool_init_ms", span_ms(spans, "pmem.pool_init"), "ms");
  out.metric("pmem.pool_free_ms", span_ms(spans, "pmem.pool_free"), "ms");
  out.metric("pmem.pools_built", static_cast<double>(ct.pools_built), "count");
  out.metric("pmem.pool_bytes_built", static_cast<double>(ct.pool_bytes_built),
             "bytes");
  out.metric("crash.crash_points", static_cast<double>(ct.crash_points), "count");
  out.metric("crash.points_pruned", static_cast<double>(ct.points_pruned),
             "count");
  out.metric("crash.images", static_cast<double>(ct.images), "count");
  out.metric("crash.subsets_materialized", ct.subsets_materialized, "count");
  out.metric("crash.duplicate_subsets",
             static_cast<double>(ct.duplicate_subsets), "count");
  out.metric("crash.images_inconsistent",
             static_cast<double>(ct.images_inconsistent), "count");
  emit_self_times(out, spans);
}

}  // namespace

void run_gen_crashsim(const Config& cfg, Result& out) {
  core::DriverOptions dopts;
  dopts.crashsim = true;
  dopts.jobs = std::min<size_t>(4, cfg.nproc);
  core::AnalysisDriver driver(dopts);

  std::vector<double> rate, cpu_us, gen_s, sys_s, faults;
  std::optional<Batch> first_batch;
  std::optional<core::Report> first_report;
  const double start = now_s();
  for (size_t round = 0;
       round < static_cast<size_t>(kMinRounds) || now_s() - start < cfg.seconds;
       ++round) {
    Batch batch = make_batch(cfg.seed, round);
    const std::vector<core::AnalysisUnit> units = units_of(batch);
    const ProcUsage u0 = proc_usage();
    const double t0 = now_s();
    core::Report report = driver.run(units);
    const double secs = now_s() - t0;
    const ProcUsage du = proc_usage() - u0;

    rate.push_back(static_cast<double>(kBatch) / secs);
    cpu_us.push_back(du.cpu_s() * 1e6 / static_cast<double>(kBatch));
    gen_s.push_back(batch.gen_s);
    sys_s.push_back(du.sys_s);
    faults.push_back(du.minor_faults);
    if (report.units().size() != batch.programs.size()) {
      out.attempt();
      out.fail("driver returned " + std::to_string(report.units().size()) +
               " units for " + std::to_string(batch.programs.size()));
      continue;
    }
    for (size_t i = 0; i < batch.programs.size(); ++i)
      check_unit(batch.programs[i], report.units()[i], out);
    if (!first_batch) {
      first_batch = std::move(batch);
      first_report = std::move(report);
    }
  }
  // Round r's batch is a function of (seed, r) alone, so the first
  // batch's hash shows two runs analyzed the same programs.
  if (first_batch) {
    serve::Hasher h;
    for (const gen::GeneratedProgram& p : first_batch->programs)
      h.update(p.text).update(gen::manifest_json(p.manifest));
    out.fingerprint("programs+manifests of round 0", h.hex());
  }
  out.note(strformat("%zu rounds of %zu programs at jobs %zu; programs/s "
                     "min %.0f median %.0f max %.0f; minor faults per round "
                     "min %.0f max %.0f",
                     rate.size(), kBatch, dopts.jobs, percentile(rate, 0),
                     median(rate), percentile(rate, 1), percentile(faults, 0),
                     percentile(faults, 1)));

  const double programs_per_s = median(rate);
  out.metric("throughput_per_s", programs_per_s, "1/s");
  out.metric("programs_per_s", programs_per_s, "programs/s");
  out.metric("proc.cpu_us_per_op", median(cpu_us), "us");
  out.metric("setup_s", median(gen_s), "s");
  out.metric("proc.sys_s", median(sys_s), "s");
  out.metric("proc.minor_faults", median(faults), "count");

  if (cfg.trace && first_batch) traced_pass(*first_batch, *first_report, out);
}

}  // namespace perfbench
