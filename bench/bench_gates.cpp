// The reproduction's own layer gates, in one binary. The paper's tables
// and figures keep one binary each (DESIGN.md §4); these gates bound what
// the reproduction adds on top of them: the parallel driver, resilience
// budgets, telemetry, the serve cache and daemon, and the load engine.
//
//   bench_gates <gate> [--json FILE]
//   bench_gates load [--threads N] [--ops N] [--json FILE]
//
// Each process runs exactly one gate, because obs_overhead resets the
// global metrics registry, flight recorder and tracer, and the serve gates
// bind sockets and temp directories. Exit 0 when the gate holds, 1 when it
// does not (or its measurement is invalid), 64 on a usage error, which is
// reported before any work. Every bound is a constant in the gate table at
// the bottom of this file, and that table is also the usage text.
// --json writes the gate's result object; scripts/bench.sh collects them
// as BENCH_<gate>.json.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/analysis_driver.h"
#include "corpus/corpus.h"
#include "gen/generator.h"
#include "load/engine.h"
#include "load/shards.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "support/flags.h"
#include "support/stats.h"
#include "support/str.h"

using namespace deepmc;

namespace {

namespace fs = std::filesystem;

/// What the command line sets.
struct Flags {
  std::string json;                  ///< --json FILE ("" = no file)
  uint64_t threads = 8;              ///< load: workers per run
  uint64_t ops_per_thread = 125000;  ///< load: 8 x 125k = 1M ops per run
};

struct Gate {
  const char* name;     ///< argv[1], and scripts/bench.sh's short name
  const char* summary;  ///< usage line and banner; its "%g" is `bound`
  double bound;         ///< the limit the gate holds
  int (*run)(const Gate&, const Flags&);
  bool sized = false;   ///< takes --threads / --ops
};

/// Timings per side for the min-of-N and interleaved-pair statistics.
constexpr size_t kRepeats = 7;

/// The measurement itself is invalid (a unit failed, a cache state was
/// wrong): no verdict and no JSON file.
[[noreturn]] void abort_gate(const std::string& why) {
  std::fprintf(stderr, "bench_gates: %s\n", why.c_str());
  std::exit(1);
}

/// Write the JSON result when --json was given, and turn the verdict into
/// the exit code.
int finish(const bench::JsonResult& json, const Flags& flags, bool pass) {
  if (!json.write(flags.json)) {
    std::fprintf(stderr, "bench_gates: cannot write %s\n",
                 flags.json.c_str());
    return 1;
  }
  return pass ? 0 : 1;
}

/// The smallest of `n` timings `time(rep)`.
template <typename Fn>
double min_of(size_t n, Fn&& time) {
  double best = 0;
  for (size_t rep = 0; rep < n; ++rep) {
    const double t = time(rep);
    if (rep == 0 || t < best) best = t;
  }
  return best;
}

/// Every corpus module, `repeats` times over.
std::vector<core::AnalysisUnit> corpus_units(size_t repeats = 1) {
  std::vector<core::AnalysisUnit> units;
  for (size_t r = 0; r < repeats; ++r)
    for (const std::string& name : corpus::module_names())
      units.push_back(core::make_corpus_unit(name));
  return units;
}

struct Sweep {
  double seconds = 0;  ///< wall clock of driver.run alone
  core::Report report;
};

Sweep sweep(core::DriverOptions opts,
            const std::vector<core::AnalysisUnit>& units) {
  core::AnalysisDriver driver(std::move(opts));
  Stopwatch sw;
  core::Report report = driver.run(units);
  return {sw.seconds(), std::move(report)};
}

/// A fresh, empty deepmc_bench_<tag>.<pid> under the temp directory
/// (TMPDIR), removed with everything in it when the gate is done with it.
struct ScratchDir {
  std::string path;

  explicit ScratchDir(const std::string& tag)
      : path((fs::temp_directory_path() /
              ("deepmc_bench_" + tag + "." + std::to_string(getpid())))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

/// One root of the serve workloads: a persistent record hammered through a
/// chain of `diamonds` diamonds (2^diamonds paths). Every store writes an
/// integer constant, so gen::touch_function always has an editable site.
/// The arms are fat: trace collection re-walks each instruction once per
/// path while parse and DSA see it once, so per-root checking dominates
/// the per-request fixed costs. The first store sits at `entry_line`; arm
/// store s of diamond d at `line_base` + 8d + s + 2 (true arm) or + 40.
std::string diamond_root(size_t n, size_t diamonds, const char* file,
                         size_t entry_line, size_t line_base) {
  std::string out = strformat("define void @root%zu() {\n", n);
  out += "entry:\n  %r = pm.alloc %rec\n  %f = gep %r, 0\n";
  out += strformat("  store i64 %zu, %%f !loc(\"%s\", %zu)\n", n + 1, file,
                   entry_line);
  out += "  br label %d0\n";
  for (size_t d = 0; d < diamonds; ++d) {
    out += strformat("d%zu:\n  %%v%zu = load %%f\n  %%c%zu = lt %%v%zu, 5\n",
                     d, d, d, d);
    out += strformat("  br %%c%zu, label %%d%zua, label %%d%zub\n", d, d, d);
    for (const bool taken : {true, false}) {
      out += strformat("d%zu%c:\n", d, taken ? 'a' : 'b');
      for (size_t s = 0; s < 4; ++s) {
        out += strformat("  store i64 %zu, %%f !loc(\"%s\", %zu)\n",
                         d + s + (taken ? 2 : 3), file,
                         line_base + 8 * d + s + (taken ? 2 : 40));
        out += "  pm.flush %f, 8\n";
      }
      out += strformat("  br label %%d%zue\n", d);
    }
    out += strformat("d%zue:\n", d);
    out += d + 1 < diamonds ? strformat("  br label %%d%zu\n", d + 1)
                            : std::string("  br label %done\n");
  }
  out += "done:\n  pm.flush %f, 8\n  pm.fence\n  ret\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// parallel_sweep: the static corpus sweep, serial vs the parallel driver.
//
// The paper's Table 9 sells DeepMC on low compile-time overhead; this gate
// shows the driver spreads that checking over cores with byte-identical
// reports. The unit list is the corpus repeated (the work a CI sweep
// does), sized so the serial sweep lasts at least 0.4 s. Fails when a
// parallel report differs from the serial one, or, with >= 4 hardware
// threads, when --jobs 4 is under `bound` times faster than serial (on
// smaller hosts the speedup is reported as SKIP).
// ---------------------------------------------------------------------------

int run_parallel_sweep(const Gate& gate, const Flags& flags) {
  const auto at_jobs = [](size_t jobs,
                          const std::vector<core::AnalysisUnit>& units) {
    core::DriverOptions opts;
    opts.jobs = jobs;
    return sweep(std::move(opts), units);
  };
  size_t repeats = 4;
  const double probe = at_jobs(1, corpus_units()).seconds;
  if (probe > 0 && probe * repeats < 0.4)
    repeats = static_cast<size_t>(0.4 / probe) + 1;
  const auto units = corpus_units(repeats);
  std::printf("Sweep: %zu units (%zu corpus modules x %zu repeats)\n\n",
              units.size(), corpus::module_names().size(), repeats);

  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<size_t> job_counts = {2, 4};
  if (hw > 4) job_counts.push_back(hw);

  const Sweep serial = at_jobs(1, units);
  const std::string serial_text = serial.report.text();
  bench::Table table({"Jobs", "Wall (s)", "Speedup", "Output"});
  table.add_row({"1", strformat("%.3f", serial.seconds), "1.00x",
                 "baseline"});
  bool identical = true;
  double speedup4 = 0;
  for (size_t jobs : job_counts) {
    const Sweep r = at_jobs(jobs, units);
    const bool same = r.report.text() == serial_text;
    identical = identical && same;
    const double speedup = r.seconds > 0 ? serial.seconds / r.seconds : 0;
    if (jobs == 4) speedup4 = speedup;
    table.add_row({strformat("%zu", jobs), strformat("%.3f", r.seconds),
                   strformat("%.2fx", speedup),
                   same ? "identical" : "DIVERGED"});
  }
  table.print();
  const size_t warnings = serial.report.total_warnings();
  std::printf("Total warnings per sweep: %zu\n\n", warnings);

  bool pass = identical;
  if (!identical)
    std::printf("FAIL: parallel report diverged from serial report\n");
  if (hw >= 4) {
    std::printf("Speedup criterion (>= %gx at 4 jobs): %.2fx\n", gate.bound,
                speedup4);
    if (speedup4 < gate.bound) pass = false;
  } else {
    std::printf("Speedup criterion: SKIP (%u hardware thread(s); need >= 4 "
                "to demonstrate parallel speedup)\n",
                hw);
  }
  std::printf("\n[%s] corpus-sweep scaling\n", pass ? "PASS" : "FAIL");

  bench::JsonResult json("bench_parallel_sweep");
  json.add("units", static_cast<uint64_t>(units.size()));
  json.add("warnings", static_cast<uint64_t>(warnings));
  json.add("serial_s", serial.seconds);
  json.add("speedup_4", speedup4);
  json.add("identical_output", identical ? "true" : "false");
  json.add("pass", pass ? "true" : "false");
  return finish(json, flags, pass);
}

// ---------------------------------------------------------------------------
// resilience_overhead: the corpus with --crashsim, no budgets vs every
// budget armed at a limit far above what the sweep uses.
//
// The guarded run pays the whole bookkeeping cost (Budget::charge on every
// trace/DSA/interp step, amortized cancel polls, deadline checks) without
// ever tripping. Fault-point gates are compiled in and disarmed on both
// sides; their cost, one relaxed atomic load per site, is in both
// timings. The charge hot path is one add plus a masked compare and the
// poll runs every 4096 charges, so the layer should be invisible. Gated
// on the ratio of the min of kRepeats runs per side.
// ---------------------------------------------------------------------------

/// One corpus pass with --crashsim (also obs_overhead's analyze scenario);
/// its wall time. A failed unit, or a unit degraded by a budget, makes the
/// measurement invalid.
double run_corpus_crashsim(bool budgets_on) {
  core::DriverOptions opts;
  opts.crashsim = true;
  if (budgets_on) {
    // Far above anything the corpus sweep reaches: every charge runs,
    // nothing ever trips, and no rung beyond "full" is attempted.
    opts.budgets.trace_steps = 1ull << 40;
    opts.budgets.dsa_steps = 1ull << 40;
    opts.budgets.enum_images = 1ull << 40;
    opts.budgets.interp_steps = 1ull << 40;
    opts.budgets.wall_ms = 1ull << 30;
  }
  const Sweep s = sweep(std::move(opts), corpus_units());
  if (s.report.any_failed()) abort_gate("a corpus unit failed");
  if (s.report.any_degraded())
    abort_gate("a corpus unit degraded: the generous budgets are not "
               "generous enough");
  return s.seconds;
}

int run_resilience_overhead(const Gate& gate, const Flags& flags) {
  run_corpus_crashsim(false);  // warmup: page in the corpus builders
  const double t_off =
      min_of(kRepeats, [](size_t) { return run_corpus_crashsim(false); });
  const double t_on =
      min_of(kRepeats, [](size_t) { return run_corpus_crashsim(true); });
  const double overhead_pct =
      t_off > 0 ? 100.0 * (t_on - t_off) / t_off : 0.0;

  bench::Table table({"configuration", "min time (s)"});
  table.add_row({"budgets off", strformat("%.4f", t_off)});
  table.add_row({"all budgets armed (never trip)", strformat("%.4f", t_on)});
  table.print();
  std::printf("overhead: %.2f%% (budget %.1f%%, min of %zu runs each)\n",
              overhead_pct, gate.bound, kRepeats);
  const bool pass = overhead_pct <= gate.bound;
  if (!pass)
    std::fprintf(stderr,
                 "bench_gates: resilience overhead %.2f%% exceeds the %.1f%% "
                 "budget\n",
                 overhead_pct, gate.bound);

  bench::JsonResult json("bench_resilience_overhead");
  json.add("t_off_s", t_off);
  json.add("t_on_s", t_on);
  json.add("overhead_pct", overhead_pct);
  json.add("max_overhead_pct", gate.bound);
  json.add("repeats", static_cast<uint64_t>(kRepeats));
  return finish(json, flags, pass);
}

// ---------------------------------------------------------------------------
// obs_overhead: telemetry cost on the three long-running surfaces.
//
//   analyze  the corpus with --crashsim
//   serve    warm requests against an in-process AnalysisService with a
//            populated disk cache: the `deepmc serve` steady state
//   load     a deepmc-load engine run with per-op latency histograms on
//            both sides, so only the telemetry delta is timed
//
// "On" is the configuration a live daemon runs with: the metrics registry
// and the flight recorder armed, plus the span tracer for analyze (daemons
// keep tracing opt-in). Recording is a relaxed fetch_add into a
// thread-local shard, spans append to thread-local buffers and flight
// events take one uncontended shard mutex, so each scenario must stay
// within `bound` percent. The load scenario's two clock reads per op are a
// documented feature cost, not telemetry, so they run on both sides.
//
// Timing interleaves off and on runs, alternating which side of each
// back-to-back pair goes first, and gates on the smaller of two
// estimators: the median of per-pair ratios, robust to machine drift
// because both sides of a pair share the machine state, and the ratio of
// per-side minima, robust to outlier pairs. Noise inflates one or the
// other on a busy machine; a real per-request cost shifts both.
// ---------------------------------------------------------------------------

/// A 16-root module sized like the serve gate's workload, so a warm
/// request (text hash, cache read, decode, render of a real-sized report)
/// costs what the daemon's steady state costs, not the few microseconds of
/// a toy unit, which would make any fixed per-request cost look enormous.
std::string serve_module_text() {
  std::string out = "module \"bench_obs_serve\"\nstruct %rec { i64, i64 }\n\n";
  for (size_t n = 0; n < 16; ++n) {
    out += strformat("define void @root%zu() {\nentry:\n", n);
    out += "  %r = pm.alloc %rec\n  %f = gep %r, 0\n";
    for (size_t s = 0; s < 32; ++s) {
      out += strformat("  store i64 %zu, %%f !loc(\"bench_obs.c\", %zu)\n",
                       s + 1, 100 * n + s + 1);
      if (s % 3 == 2) out += "  pm.flush %f, 8\n";
    }
    out += "  pm.flush %f, 8\n  pm.fence\n  ret\n}\n\n";
  }
  return out;
}

/// Warm-request loop: every request is a whole-unit cache hit.
struct ServeScenario {
  ScratchDir dir{"obs_serve"};
  std::string name = "bench_obs_serve";
  std::string text = serve_module_text();
  static constexpr int kRequests = 1200;

  double run_once() const {
    serve::ServeOptions sopts;
    sopts.driver.jobs = 2;
    sopts.cache_dir = dir.path;
    serve::AnalysisService service(sopts);
    serve::RequestOptions req;
    req.request_id = "bench";
    (void)service.analyze_report(name, text, req);  // populate the cache
    Stopwatch sw;
    for (int i = 0; i < kRequests; ++i)
      if (service.analyze_report(name, text, req).cache != "unit-hit")
        abort_gate("obs_overhead: warm request missed");
    return sw.seconds();
  }
};

double run_load_once() {
  load::EngineConfig cfg;
  cfg.framework = "pmdk_mini";
  cfg.spec.threads = 2;
  cfg.spec.ops_per_thread = 100000;
  cfg.spec.keys = 256;
  cfg.spec.seed = 11;
  cfg.checker = load::CheckerMode::kShared;
  cfg.measure_latency = true;
  const load::EngineResult r = load::run_load(cfg);
  if (!r.ok) abort_gate("obs_overhead: load run failed");
  return r.seconds;
}

struct Row {
  const char* name;
  double t_off = 0;       ///< fastest off-side run
  double t_on = 0;        ///< fastest on-side run
  double median_pct = 0;  ///< median of per-pair overhead ratios
  /// The gated figure: min(median of pairs, ratio of minima).
  [[nodiscard]] double overhead_pct() const {
    const double min_ratio =
        t_off > 0 ? 100.0 * (t_on - t_off) / t_off : 0.0;
    return std::min(median_pct, min_ratio);
  }
};

/// kRepeats interleaved off/on pairs of `fn`. `trace` also starts the span
/// tracer on the on side.
template <typename Fn>
Row measure(const char* name, bool trace, Fn&& fn) {
  Row row{name};
  std::vector<double> pct;
  const auto timed_on = [&] {
    obs::registry().reset();
    obs::set_enabled(true);
    obs::flight().arm();
    if (trace) obs::tracer().start();
    const double on = fn();
    if (trace) obs::tracer().stop();
    obs::flight().disarm();
    obs::set_enabled(false);
    obs::registry().reset();
    return on;
  };
  for (size_t i = 0; i < kRepeats; ++i) {
    double off = 0, on = 0;
    if (i % 2 == 0) {
      off = fn();
      on = timed_on();
    } else {
      on = timed_on();
      off = fn();
    }
    if (i == 0 || off < row.t_off) row.t_off = off;
    if (i == 0 || on < row.t_on) row.t_on = on;
    if (off > 0) pct.push_back(100.0 * (on - off) / off);
  }
  std::sort(pct.begin(), pct.end());
  if (!pct.empty()) row.median_pct = pct[pct.size() / 2];
  return row;
}

int run_obs_overhead(const Gate& gate, const Flags& flags) {
  // One re-measure for a scenario over budget: a sustained noise burst
  // (container neighbours, cron) can inflate a whole measurement window,
  // and both estimators with it; a real per-request cost survives it.
  const auto gated = [&](const char* name, bool trace, auto&& fn) {
    Row row = measure(name, trace, fn);
    if (row.overhead_pct() > gate.bound) {
      std::printf("%s: %.2f%% over budget, re-measuring once\n", name,
                  row.overhead_pct());
      const Row again = measure(name, trace, fn);
      if (again.overhead_pct() < row.overhead_pct()) row = again;
    }
    return row;
  };

  const auto analyze_once = [] { return run_corpus_crashsim(false); };
  analyze_once();  // warmup: page in the corpus builders and the pool
  const Row analyze = gated("analyze (corpus + crashsim)", true, analyze_once);

  ServeScenario serve_scenario;
  serve_scenario.run_once();  // warmup: populate the disk cache
  const Row serve = gated("serve (warm requests)", false,
                          [&] { return serve_scenario.run_once(); });

  run_load_once();  // warmup
  const Row load = gated("load (latency histograms)", false, run_load_once);

  bench::Table table({"scenario", "off (s)", "on (s)", "overhead"});
  for (const Row* row : {&analyze, &serve, &load})
    table.add_row({row->name, strformat("%.4f", row->t_off),
                   strformat("%.4f", row->t_on),
                   strformat("%.2f%%", row->overhead_pct())});
  table.print();
  const double worst =
      std::max({analyze.overhead_pct(), serve.overhead_pct(),
                load.overhead_pct()});
  std::printf("worst overhead: %.2f%% (budget %.1f%%, gated min(median of "
              "%zu pairs, ratio of minima), interleaved pairs, flight "
              "recorder armed)\n",
              worst, gate.bound, kRepeats);
  const bool pass = worst <= gate.bound;
  if (!pass)
    std::fprintf(stderr,
                 "bench_gates: obs overhead %.2f%% exceeds the %.1f%% "
                 "budget\n",
                 worst, gate.bound);

  bench::JsonResult json("bench_obs_overhead");
  json.add("t_off_s", analyze.t_off);
  json.add("t_on_s", analyze.t_on);
  json.add("overhead_pct", analyze.overhead_pct());
  json.add("serve_t_off_s", serve.t_off);
  json.add("serve_t_on_s", serve.t_on);
  json.add("serve_overhead_pct", serve.overhead_pct());
  json.add("load_t_off_s", load.t_off);
  json.add("load_t_on_s", load.t_on);
  json.add("load_overhead_pct", load.overhead_pct());
  json.add("max_overhead_pct", gate.bound);
  json.add("repeats", static_cast<uint64_t>(kRepeats));
  return finish(json, flags, pass);
}

// ---------------------------------------------------------------------------
// serve: cold full analysis vs warm whole-unit replay vs a one-function
// diff through src/serve's cache (docs/SERVER.md).
//
// The module has independent diamond-heavy roots, so per-root trace
// checking dominates and the dirty-cone win is measurable. Each phase is
// the min of 3 requests. Every service runs the driver at jobs 1, so cold
// and diff do their work on one core and the ratio compares work, not how
// many idle cores the cold request's roots fan out over. Warm bodies must
// equal the cold body and every request must land in its phase's cache
// state (cold / unit-hit / warm); the gate is the one-function diff being
// >= `bound` times faster than cold.
// ---------------------------------------------------------------------------

int run_serve(const Gate& gate, const Flags& flags) {
  constexpr size_t kRoots = 24;    ///< independent trace roots
  constexpr size_t kDiamonds = 8;  ///< per root: 2^8 = 256 paths (the cap)
  constexpr size_t kReps = 3;
  std::string text = "module \"bench_serve\"\nstruct %rec { i64, i64 }\n\n";
  for (size_t n = 0; n < kRoots; ++n)
    text += diamond_root(n, kDiamonds, "bench_serve.c", 10 * n + 1, 100 * n) +
            "\n";
  serve::RequestOptions req;  // json, no timing: deterministic bytes
  const auto serial_service = [](const std::string& cache_dir) {
    serve::ServeOptions opts;
    opts.driver.jobs = 1;
    opts.cache_dir = cache_dir;
    return opts;
  };
  const auto timed = [&](serve::AnalysisService& service,
                         const std::string& module, const char* cache) {
    Stopwatch sw;
    const serve::ServeResult r =
        service.analyze_report("bench_serve", module, req);
    const double ms = sw.millis();
    if (r.cache != cache)
      abort_gate(strformat("serve: expected a %s request, got %s", cache,
                           r.cache.c_str()));
    return std::pair{ms, r.body};
  };

  // Cold: a fresh cache and service per rep, every root analyzed.
  std::string cold_body;
  const double cold_ms = min_of(kReps, [&](size_t rep) {
    const ScratchDir dir("serve_cold" + std::to_string(rep));
    serve::AnalysisService service(serial_service(dir.path));
    auto [ms, body] = timed(service, text, "cold");
    cold_body = std::move(body);
    return ms;
  });

  // Warm: identical resubmission against a warmed cache (unit replay).
  const ScratchDir warm_dir("serve_warm");
  serve::AnalysisService service(serial_service(warm_dir.path));
  service.analyze_report("bench_serve", text, req);
  const double warm_ms = min_of(kReps, [&](size_t) {
    const auto [ms, body] = timed(service, text, "unit-hit");
    if (body != cold_body)
      abort_gate("serve: warm response differs from cold run");
    return ms;
  });

  // Touched: a distinct one-function edit per rep (never a unit hit; all
  // but one root seeded from the warm cache).
  const double touched_ms = min_of(kReps, [&](size_t rep) {
    const std::string variant = gen::touch_function(text, rep + 1);
    if (variant == text) abort_gate("serve: touch_function was a no-op");
    return timed(service, variant, "warm").first;
  });
  const auto stats = service.stats();
  const double speedup = touched_ms > 0 ? cold_ms / touched_ms : 0;
  const auto rps = [](double ms) { return ms > 0 ? 1000.0 / ms : 0; };

  bench::Table table({"phase", "ms (min of 3)", "requests/sec", "note"});
  table.add_row({"cold full run", strformat("%.2f", cold_ms),
                 strformat("%.1f", rps(cold_ms)),
                 strformat("%zu roots, %zu diamonds each", kRoots,
                           kDiamonds)});
  table.add_row({"warm identical", strformat("%.2f", warm_ms),
                 strformat("%.1f", rps(warm_ms)), "whole-unit replay"});
  table.add_row({"warm 1-func diff", strformat("%.2f", touched_ms),
                 strformat("%.1f", rps(touched_ms)),
                 strformat("dirty cone: %llu of %zu roots",
                           static_cast<unsigned long long>(
                               stats.last_dirty_roots),
                           kRoots)});
  table.print();
  std::printf("\ndirty-cone speedup over cold: %.2fx (gate: >= %.1fx)\n",
              speedup, gate.bound);
  const bool pass = speedup >= gate.bound;
  if (!pass)
    std::fprintf(stderr,
                 "bench_gates: dirty-cone speedup %.2fx below gate %.1fx\n",
                 speedup, gate.bound);

  bench::JsonResult json("serve");
  json.add("roots", static_cast<uint64_t>(kRoots));
  json.add("diamonds_per_root", static_cast<uint64_t>(kDiamonds));
  json.add("cold_ms", cold_ms);
  json.add("warm_ms", warm_ms);
  json.add("touched_ms", touched_ms);
  json.add("cold_rps", rps(cold_ms));
  json.add("warm_rps", rps(warm_ms));
  json.add("dirty_cone_roots", stats.last_dirty_roots);
  json.add("speedup", speedup);
  json.add("min_speedup", gate.bound);
  return finish(json, flags, pass);
}

// ---------------------------------------------------------------------------
// serve_concurrency: aggregate requests/s through a real ServeDaemon (Unix
// socket, session pool, admission control) at 1, 4 and 16 concurrent
// clients (docs/SERVER.md "Operating under load").
//
// Every request is a distinct diamond-heavy module, so each is a cold
// analysis: the gate measures how concurrent sessions scale the daemon's
// useful work, not cache hits. Driver jobs stay at 1, so all parallelism
// comes from the session pool. Fails on any failed request, on any
// connection shed (every phase runs below admission capacity), or when 4
// clients reach under `bound` times one client's rate. Below 4 hardware
// threads the bound decays to "concurrency must not tank throughput".
// ---------------------------------------------------------------------------

constexpr size_t kConcDiamonds = 7;   ///< 2^7 = 128 paths per root
constexpr size_t kReqsPerClient = 10;  ///< requests each client issues

struct PhaseResult {
  double seconds = 0;
  uint64_t requests = 0;
  uint64_t failures = 0;
  uint64_t shed = 0;
  [[nodiscard]] double rps() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0;
  }
};

PhaseResult run_phase(size_t nclients) {
  const std::string tag = std::to_string(nclients) + "c";
  const ScratchDir cache_dir("conc_" + tag);
  serve::ServeOptions sopts;
  sopts.driver.jobs = 1;  // all parallelism comes from the session pool
  sopts.cache_dir = cache_dir.path;
  serve::AnalysisService service(std::move(sopts));

  serve::DaemonOptions dopts;
  dopts.max_sessions = 16;
  dopts.accept_queue = 64;  // below capacity: nothing may be shed
  serve::ServeDaemon daemon(service, dopts);
  const std::string sock = "/tmp/deepmc_bench_conc_" + tag + ".sock";
  fs::remove(sock);
  std::string err;
  if (!daemon.listen_unix(sock, &err)) abort_gate("serve_concurrency: " + err);
  std::thread runner([&] { daemon.run(); });

  PhaseResult result;
  std::vector<uint64_t> fails(nclients, 0);
  Stopwatch sw;
  std::vector<std::thread> clients;
  clients.reserve(nclients);
  for (size_t c = 0; c < nclients; ++c) {
    clients.emplace_back([&, c] {
      serve::ServeClient client(sock);
      for (size_t i = 0; i < kReqsPerClient; ++i) {
        // A unique module per (phase, client, request): same shape,
        // distinct constants and name, so every request is a cold unit.
        const std::string name =
            strformat("conc_%s_%zu_%zu", tag.c_str(), c, i);
        const size_t uniq = c * 1000 + i;
        serve::RequestFrame req;
        req.header = "{\"op\": \"analyze\", \"name\": \"" + name +
                     "\", \"format\": \"json\"}";
        req.body = "module \"" + name + "\"\nstruct %rec { i64, i64 }\n\n" +
                   diamond_root(uniq, kConcDiamonds, "conc.c", 1, 1000 * uniq);
        serve::ResponseFrame resp;
        std::string cerr_msg;
        if (!client.call(req, &resp, &cerr_msg) ||
            resp.status != serve::kStatusOk)
          ++fails[c];
      }
    });
  }
  for (std::thread& t : clients) t.join();
  result.seconds = sw.seconds();
  result.requests = nclients * kReqsPerClient;
  for (uint64_t f : fails) result.failures += f;

  daemon.begin_drain("bench-done");
  runner.join();
  result.shed = daemon.stats().shed;
  fs::remove(sock);
  return result;
}

int run_serve_concurrency(const Gate& gate, const Flags& flags) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const double required =
      cores >= 4 ? gate.bound
                 : std::min(gate.bound, std::max(0.6, 0.7 * cores));

  const PhaseResult one = run_phase(1);
  const PhaseResult four = run_phase(4);
  const PhaseResult sixteen = run_phase(16);
  const double speedup4 = one.rps() > 0 ? four.rps() / one.rps() : 0;

  bench::Table table({"clients", "requests", "wall s", "req/s", "shed",
                      "failures"});
  for (const auto& [label, r] :
       {std::pair<const char*, const PhaseResult&>{"1", one},
        {"4", four},
        {"16", sixteen}})
    table.add_row({label, std::to_string(r.requests),
                   strformat("%.3f", r.seconds), strformat("%.1f", r.rps()),
                   std::to_string(r.shed), std::to_string(r.failures)});
  table.print();
  std::printf("4-client aggregate speedup: %.2fx (gate %.2fx on %u threads)\n",
              speedup4, required, cores);

  const uint64_t failures = one.failures + four.failures + sixteen.failures;
  const uint64_t shed = one.shed + four.shed + sixteen.shed;
  bool pass = true;
  if (failures > 0) {
    std::fprintf(stderr, "bench_gates: serve_concurrency requests failed\n");
    pass = false;
  }
  if (shed > 0) {
    std::fprintf(stderr,
                 "bench_gates: serve_concurrency shed connections below "
                 "capacity\n");
    pass = false;
  }
  if (speedup4 < required) {
    std::fprintf(stderr,
                 "bench_gates: 4-client speedup %.2fx below gate %.2fx\n",
                 speedup4, required);
    pass = false;
  }
  std::printf("%s\n", pass ? "PASS" : "FAIL");

  bench::JsonResult json("serve_concurrency");
  json.add("clients_1_rps", one.rps());
  json.add("clients_4_rps", four.rps());
  json.add("clients_16_rps", sixteen.rps());
  json.add("speedup_4_clients", speedup4);
  json.add("required_speedup", required);
  json.add("hardware_threads", static_cast<uint64_t>(cores));
  json.add("shed_total", shed);
  json.add("failures", failures);
  json.add("passed", pass ? "true" : "false");
  return finish(json, flags, pass);
}

// ---------------------------------------------------------------------------
// load: the Figure 12 analog for the runtime checker.
//
// For every mini framework, the deepmc-load engine (src/load) replays one
// keyed KV schedule (--threads workers, --ops ops each) three times:
// checker off (the framework alone), shared (one RuntimeChecker for all
// workers) and per-shard (one per worker). It reports ops/s, the overhead
// off/shared, and shared/per-shard, the share of the per-worker checkers'
// throughput one shared checker keeps (reported, not gated). Fails unless
// every run completes every op with the same schedule hash and no race,
// and the shared checker is within `bound` times the baseline everywhere.
// ---------------------------------------------------------------------------

int run_load(const Gate& gate, const Flags& flags) {
  const uint64_t want = flags.threads * flags.ops_per_thread;
  bench::JsonResult json("load");
  json.add("threads", flags.threads);
  json.add("ops_per_thread", flags.ops_per_thread);
  json.add("total_ops_per_run", want);

  const auto fmt = [](double v) { return strformat("%.3g", v); };
  bench::Table table({"framework", "off ops/s", "checker ops/s", "overhead",
                      "per-shard ops/s", "shared/per-shard", "races",
                      "tracked words"});
  bool pass = true;
  double worst_overhead = 0;
  for (const std::string& fw : load::framework_names()) {
    load::EngineConfig cfg;
    cfg.framework = fw;
    cfg.spec.threads = static_cast<uint32_t>(flags.threads);
    cfg.spec.ops_per_thread = flags.ops_per_thread;
    cfg.spec.keys = 1024;
    cfg.spec.seed = 42;

    cfg.checker = load::CheckerMode::kOff;
    const load::EngineResult off = load::run_load(cfg);
    cfg.checker = load::CheckerMode::kShared;
    const load::EngineResult on = load::run_load(cfg);
    cfg.checker = load::CheckerMode::kPerShard;
    const load::EngineResult per = load::run_load(cfg);

    const double overhead =
        on.ops_per_sec > 0 ? off.ops_per_sec / on.ops_per_sec : 0.0;
    worst_overhead = std::max(worst_overhead, overhead);
    const double shared_share =
        per.ops_per_sec > 0 ? on.ops_per_sec / per.ops_per_sec : 0.0;
    table.add_row({fw, fmt(off.ops_per_sec), fmt(on.ops_per_sec),
                   fmt(overhead), fmt(per.ops_per_sec), fmt(shared_share),
                   std::to_string(on.races),
                   std::to_string(on.tracked_words)});

    json.add(fw + ".off_ops_per_sec", off.ops_per_sec);
    json.add(fw + ".checker_ops_per_sec", on.ops_per_sec);
    json.add(fw + ".overhead", overhead);
    json.add(fw + ".per_shard_ops_per_sec", per.ops_per_sec);
    json.add(fw + ".shared_over_per_shard", shared_share);
    json.add(fw + ".races", on.races);
    json.add(fw + ".epoch_mismatches", on.epoch_mismatches);
    json.add(fw + ".tracked_words", on.tracked_words);

    // Same schedule, fully executed, clean, in every mode; otherwise the
    // timings do not measure the same work.
    for (const load::EngineResult* r : {&on, &per}) {
      const char* mode = r == &on ? "shared" : "per-shard";
      if (!off.ok || !r->ok || off.total_ops != want ||
          r->total_ops != want || off.schedule_hash != r->schedule_hash) {
        std::fprintf(stderr,
                     "bench_gates: load %s %s run mismatch (ok=%d/%d "
                     "ops=%llu/%llu)\n",
                     fw.c_str(), mode, int(off.ok), int(r->ok),
                     static_cast<unsigned long long>(off.total_ops),
                     static_cast<unsigned long long>(r->total_ops));
        pass = false;
      }
      if (r->races != 0) {
        std::fprintf(stderr, "bench_gates: load %s clean workload raced (%s)\n",
                     fw.c_str(), mode);
        pass = false;
      }
    }
    if (overhead > gate.bound) {
      std::fprintf(stderr,
                   "bench_gates: load %s overhead %.2fx exceeds gate %.2fx\n",
                   fw.c_str(), overhead, gate.bound);
      pass = false;
    }
  }
  table.print();
  std::printf("worst overhead %.2fx (gate %.2fx): %s\n", worst_overhead,
              gate.bound, pass ? "PASS" : "FAIL");
  json.add("worst_overhead", worst_overhead);
  json.add("max_overhead_gate", gate.bound);
  json.add("pass", pass ? "true" : "false");
  return finish(json, flags, pass);
}

// ---------------------------------------------------------------------------
// The gate table: names, bounds, and the usage text.
// ---------------------------------------------------------------------------

const Gate kGates[] = {
    {"parallel_sweep",
     "corpus sweep byte-identical at --jobs 1/2/4; --jobs 4 >= %gx serial",
     2.0, run_parallel_sweep},
    {"resilience_overhead",
     "corpus + crashsim with every budget armed <= %g%% over none", 2.0,
     run_resilience_overhead},
    {"obs_overhead", "analyze / serve / load each <= %g%% with telemetry on",
     3.0, run_obs_overhead},
    {"serve", "warm body == cold body; 1-function diff >= %gx faster than cold",
     5.0, run_serve},
    {"serve_concurrency",
     "4 clients >= %gx one client (scaled below 4 hw threads), 0 shed",
     3.0, run_serve_concurrency},
    {"load",
     "checker on within %gx of off on every framework [--threads N] "
     "[--ops N]",
     16.0, run_load, true},
};

std::string describe(const Gate& g) { return strformat(g.summary, g.bound); }

int usage(const std::string& problem) {
  std::fprintf(stderr,
               "bench_gates: %s\nusage: bench_gates <gate> [--json FILE]\n",
               problem.c_str());
  for (const Gate& g : kGates)
    std::fprintf(stderr, "  %-20s %s\n", g.name, describe(g).c_str());
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("no gate named");
  const Gate* gate = nullptr;
  for (const Gate& g : kGates)
    if (std::strcmp(argv[1], g.name) == 0) gate = &g;
  if (!gate) return usage(strformat("unknown gate '%s'", argv[1]));

  Flags flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = true;
    if (bench::json_out_path(argc, argv, i, &flags.json)) {
      ok = !flags.json.empty();
    } else if (!gate->sized ||
               !(support::num_flag("--threads", arg, argc, argv, i,
                                   &flags.threads, &ok, support::kMaxJobs) ||
                 support::num_flag("--ops", arg, argc, argv, i,
                                   &flags.ops_per_thread, &ok))) {
      return usage(strformat("unknown flag '%s' for gate %s", arg.c_str(),
                             gate->name));
    }
    if (!ok || flags.threads == 0 || flags.ops_per_thread == 0)
      return usage("missing or invalid value for " + arg);
  }

  bench::print_system_config(
      ("bench_gates " + std::string(gate->name) + ": " + describe(*gate))
          .c_str());
  return gate->run(*gate, flags);
}
