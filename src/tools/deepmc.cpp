// deepmc — the command-line front end, matching the paper's usage model:
// the user picks the intended persistency model with one flag and gets a
// bug report. `deepmc --help` lists the options; docs/CLI.md describes
// them.
//
//   deepmc [-strict|-epoch|-strand] [options] file.mir...
//
// Exit codes:
//   0       clean (no warnings)
//   1..63   number of warnings (capped at 63)
//   64      usage error (unknown flag, missing or invalid operand, no inputs)
//   65      input error (unreadable file, parse/verify failure, unknown
//           corpus module) or any failed unit
//   66      no failures, but at least one unit was degraded (analyzed on a
//           tightened ladder rung after a budget trip)
// Precedence: failed (65) > degraded (66) > warning count.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis_driver.h"
#include "corpus/corpus.h"
#include "serve/server.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "support/faultpoint.h"
#include "support/flags.h"
#include "support/thread_pool.h"

using namespace deepmc;

namespace {

constexpr int kExitError = 65;
constexpr int kExitDegraded = 66;

}  // namespace

int main(int argc, char** argv) {
  // `deepmc serve ...` is its own sub-CLI (src/serve/): a long-running
  // daemon / framed client, not a batch run.
  if (argc >= 2 && std::string(argv[1]) == "serve")
    return serve::serve_cli(argc - 2, argv + 2);
  core::DriverOptions opts;
  std::string format = "text";
  std::string suppressions;
  std::vector<std::string> files;
  std::vector<std::string> corpus_modules;
  bool stats = false;
  std::string metrics_out, prom_out, trace_out, flight_out;
  const support::Command cmd{
      "deepmc",
      {"deepmc [-strict|-epoch|-strand] [options] file.mir...",
       "deepmc serve ...   incremental analysis server (deepmc serve --help)"},
      {
          {"-strict|-epoch|-strand", nullptr,
           [&](const std::string& m) {
             opts.model = *core::parse_model_flag(m);
             return true;
           },
           "persistency model (default -strict)"},
          {"--dynamic", nullptr, &opts.dynamic_run,
           "run @main under the dynamic checker"},
          {"--crashsim", nullptr, &opts.crashsim,
           "confirm warnings against enumerated crash images"},
          {"--jobs|-j", "N", &opts.jobs,
           "analysis threads, 1 = serial (default: hardware)",
           support::kMaxJobs, 1},
          {"--format", "text|json", &format, "report format (default text)"},
          {"--dump-ir", nullptr, &opts.dump_ir,
           "print the (possibly instrumented) module"},
          {"--dump-dsg", nullptr, &opts.dump_dsg,
           "print the persistent Data Structure Graph"},
          {"--dump-traces", nullptr, &opts.dump_traces,
           "print collected trace summaries"},
          {"--suggest", nullptr, &opts.suggest,
           "append fix suggestions to warnings"},
          {"--suppressions", "FILE", &suppressions,
           "suppress the warnings FILE lists"},
          {"--field-insensitive", nullptr,
           support::set_to(&opts.field_sensitive, false),
           "disable DSA field sensitivity (ablation)"},
          {"--corpus", "NAME", &corpus_modules,
           "analyze a built-in corpus module (repeatable)"},
          {"--list-corpus", nullptr,
           support::Exit{[] {
             for (const std::string& n : corpus::module_names())
               std::printf("%s\n", n.c_str());
           }},
           "list the built-in corpus modules"},
          {"--help|-h", nullptr, support::Help{}, "print this help"},
          support::heading("resilience (docs/RESILIENCE.md)"),
          {"--budget-trace-steps", "N", &opts.budgets.trace_steps,
           "per-root trace walk budget (0 = unlimited)"},
          {"--budget-dsa-steps", "N", &opts.budgets.dsa_steps,
           "per-unit DSA build budget"},
          {"--budget-enum-images", "N", &opts.budgets.enum_images,
           "per-root crash-image budget"},
          {"--budget-interp-steps", "N", &opts.budgets.interp_steps,
           "per-execution interpreter budget"},
          {"--budget-wall-ms", "N", &opts.budgets.wall_ms,
           "per-attempt wall-clock watchdog", support::kMaxMillis},
          {"--keep-going", nullptr, &opts.keep_going,
           "analyze every unit after a failed one (default)"},
          {"--fail-fast", nullptr, support::set_to(&opts.keep_going, false),
           "stop at the first failed unit"},
          support::inject_fault_flag(),
          support::list_fault_points_flag(),
          support::heading("observability (the report stays byte-identical)"),
          {"--stats", nullptr, &stats, "print a metrics summary to stderr"},
          {"--metrics-out", "FILE", &metrics_out,
           "write metrics JSON (deepmc-metrics-v1)"},
          {"--prom-out", "FILE", &prom_out,
           "write the Prometheus text exposition"},
          {"--trace-out", "FILE", &trace_out,
           "write a Chrome trace_event span trace"},
          support::flight_out_flag(&flight_out),
      },
      [&](const std::string& file) { files.push_back(file); }};
  if (auto rc = support::parse_flags(cmd, argc - 1, argv + 1)) return *rc;
  if (files.empty() && corpus_modules.empty())
    return support::usage_error(cmd, "no input file or --corpus");
  if (std::string env_err; !support::arm_faults_from_env(&env_err)) {
    std::fprintf(stderr, "deepmc: %s\n", env_err.c_str());
    return support::kExitUsage;
  }
  if (!suppressions.empty()) {
    std::ifstream f(suppressions);
    if (!f) {
      std::fprintf(stderr, "deepmc: cannot open %s\n", suppressions.c_str());
      return kExitError;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    opts.suppressions = core::SuppressionDb::parse(buf.str());
  }

  std::vector<core::AnalysisUnit> units;
  units.reserve(corpus_modules.size() + files.size());
  for (const std::string& name : corpus_modules)
    units.push_back(core::make_corpus_unit(name));
  for (const std::string& file : files)
    units.push_back(core::make_file_unit(file));

  // Any observability sink turns recording on; the report is unaffected
  // either way (asserted by tests/obs_test.cpp and scripts/check.sh).
  const bool obs_on = stats || !metrics_out.empty() || !prom_out.empty() ||
                      !trace_out.empty() || !flight_out.empty();
  if (obs_on) obs::set_enabled(true);
  if (!trace_out.empty()) obs::tracer().arm(obs::Recorder::kUnbounded);
  // Flight recorder: cheap enough to arm with any sink on. --flight-out
  // dumps unconditionally; otherwise only a 65/66 exit leaves a
  // post-mortem file (clean runs leave nothing behind).
  if (obs_on) obs::flight().arm();
  auto finish = [&flight_out](int code) {
    if (obs::flight().armed()) {
      std::string path = flight_out;
      if (path.empty() && (code == kExitError || code == kExitDegraded))
        path = "deepmc-flight.jsonl";
      if (!path.empty() && !obs::flight().dump_file(path))
        std::fprintf(stderr, "deepmc: cannot write %s\n", path.c_str());
    }
    return code;
  };
  const size_t jobs = support::ThreadPool::resolve_jobs(opts.jobs);
  const size_t pool_workers = support::ThreadPool::workers_for(opts.jobs);
  const auto t0 = std::chrono::steady_clock::now();

  core::AnalysisDriver driver(std::move(opts));
  core::Report report = driver.run(units);

  if (format == "json")
    report.print_json(std::cout);
  else
    report.print_text(std::cout);
  std::cout.flush();

  if (obs_on) {
    // The driver's pool has been joined, so every worker's counts are in
    // the registry's shards and the snapshot is complete and deterministic.
    obs::Snapshot snap = obs::registry().snapshot();
    snap.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    if (!metrics_out.empty()) {
      std::ofstream f(metrics_out, std::ios::binary);
      f << snap.to_json();
      if (!f.flush()) {
        std::fprintf(stderr, "deepmc: cannot write %s\n", metrics_out.c_str());
        return finish(kExitError);
      }
    }
    if (!prom_out.empty()) {
      std::ofstream f(prom_out, std::ios::binary);
      snap.to_prometheus(f);
      if (!f.flush()) {
        std::fprintf(stderr, "deepmc: cannot write %s\n", prom_out.c_str());
        return finish(kExitError);
      }
    }
    if (!trace_out.empty() && !obs::tracer().write_trace_file(trace_out)) {
      std::fprintf(stderr, "deepmc: cannot write %s\n", trace_out.c_str());
      return finish(kExitError);
    }
    if (stats) {
      char header[128];
      std::snprintf(header, sizeof header, "jobs=%zu, pool=%zu worker(s), "
                    "units=%zu",
                    jobs, pool_workers, units.size());
      snap.print_stats(std::cerr, header);
    }
  }

  for (const core::UnitReport& u : report.units()) {
    if (u.failed) {
      std::fprintf(stderr, "deepmc: %s: %s\n", u.name.c_str(),
                   u.error.c_str());
    } else if (u.status == core::UnitStatus::kDegraded) {
      std::fprintf(stderr, "deepmc: %s: degraded: %s (rung %s)\n",
                   u.name.c_str(), u.degraded.reason.c_str(),
                   u.degraded.rung.c_str());
    }
  }
  return finish(report.exit_code());
}
