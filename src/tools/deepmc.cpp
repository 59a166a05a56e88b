// deepmc — the command-line front end, matching the paper's usage model:
// the user picks the intended persistency model with one flag and gets a
// bug report.
//
//   deepmc [-strict|-epoch|-strand] [options] file.mir...
//
// Options:
//   -strict / -epoch / -strand   persistency model (default -strict)
//   --dynamic                    instrument and execute @main under the
//                                dynamic checker (strand races, runtime
//                                epoch/flush checks)
//   --crashsim                   enumerate reachable crash images for every
//                                executable trace root and validate each
//                                static warning end-to-end (confirmed /
//                                not-reproduced / skipped)
//   --jobs N / -j N              analysis threads (default: hardware
//                                concurrency; 1 = serial). Output is
//                                byte-identical for every N.
//   --format text|json           report format (default text); json carries
//                                per-unit timing/trace/DSA counters
//   --dump-ir                    print the (possibly instrumented) module
//   --dump-dsg                   print the persistent Data Structure Graph
//   --dump-traces                print collected trace summaries
//   --corpus <name>              analyze a built-in corpus module instead
//                                of a file (see --list-corpus)
//   --list-corpus                list built-in corpus modules
//   --field-insensitive          disable DSA field sensitivity (ablation)
//
// Resilience (docs/RESILIENCE.md):
//   --budget-trace-steps N       per-root trace walk budget (0 = unlimited)
//   --budget-dsa-steps N         per-unit DSA build budget
//   --budget-enum-images N       per-root crash-image budget
//   --budget-interp-steps N      per-execution interpreter budget
//   --budget-wall-ms N           per-attempt wall-clock watchdog (cancels
//                                cooperatively; inherently nondeterministic)
//   --keep-going / --fail-fast   keep analyzing after a failed unit
//                                (default) / stop at the first failure
//   --inject-fault NAME:COUNT    arm a fault point (repeatable; also via
//                                DEEPMC_FAULTS=name:count[,name:count])
//   --list-fault-points          list registered fault points
//
// Observability (pure side channels; the report on stdout is byte-identical
// with these on or off, at any --jobs):
//   --stats                      print a metrics summary table to stderr
//   --metrics-out FILE           write metrics JSON (deepmc-metrics-v1)
//   --prom-out FILE              write Prometheus text exposition
//   --trace-out FILE             write a Chrome trace_event JSON span trace
//   --flight-out FILE            arm the flight recorder and dump its recent
//                                events (JSONL) at exit; also via
//                                DEEPMC_FLIGHT_OUT. With any other obs sink
//                                on, the recorder is armed too and dumps to
//                                deepmc-flight.jsonl on exit 65/66, so
//                                degraded/failed runs leave a post-mortem.
//
// Exit codes:
//   0       clean (no warnings)
//   1..63   number of warnings (capped at 63)
//   64      usage error (unknown flag, missing operand, no inputs)
//   65      input error (unreadable file, parse/verify failure, unknown
//           corpus module) or any failed unit
//   66      no failures, but at least one unit was degraded (analyzed on a
//           tightened ladder rung after a budget trip)
// Warning counts and error exits no longer overlap: 64/65/66 are reserved.
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
using support::num_flag;
using support::str_flag;

namespace {

constexpr int kExitUsage = 64;
constexpr int kExitError = 65;
constexpr int kExitDegraded = 66;

void usage() {
  std::fprintf(stderr,
               "usage: deepmc [-strict|-epoch|-strand] [--dynamic] "
               "[--crashsim]\n"
               "[--dump-ir] [--dump-dsg] [--dump-traces]\n"
               "              [--suggest] [--suppressions FILE] "
               "[--field-insensitive]\n"
               "              [--jobs N] [--format text|json]\n"
               "              [--stats] [--metrics-out FILE] "
               "[--prom-out FILE]\n"
               "              [--trace-out FILE] [--flight-out FILE]\n"
               "              [--budget-trace-steps N] [--budget-dsa-steps N]\n"
               "              [--budget-enum-images N] "
               "[--budget-interp-steps N]\n"
               "              [--budget-wall-ms N] [--keep-going|--fail-fast]\n"
               "              [--inject-fault NAME:COUNT] "
               "[--list-fault-points]\n"
               "              [--corpus NAME] [--list-corpus] file.mir...\n"
               "       deepmc serve ...   incremental analysis server "
               "(deepmc serve --help)\n");
}

}  // namespace

int main(int argc, char** argv) {
  // `deepmc serve ...` is its own sub-CLI (src/serve/): a long-running
  // daemon / framed client, not a batch run.
  if (argc >= 2 && std::string(argv[1]) == "serve")
    return serve::serve_cli(argc - 2, argv + 2);
  core::DriverOptions opts;
  core::ReportFormat format = core::ReportFormat::kText;
  std::vector<std::string> files;
  std::vector<std::string> corpus_modules;
  bool stats = false;
  std::string metrics_out, prom_out, trace_out, flight_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool num_ok = false;
    if (auto m = core::parse_model_flag(arg)) {
      opts.model = *m;
    } else if (num_flag("--budget-trace-steps", arg, argc, argv, i,
                        &opts.budgets.trace_steps, &num_ok) ||
               num_flag("--budget-dsa-steps", arg, argc, argv, i,
                        &opts.budgets.dsa_steps, &num_ok) ||
               num_flag("--budget-enum-images", arg, argc, argv, i,
                        &opts.budgets.enum_images, &num_ok) ||
               num_flag("--budget-interp-steps", arg, argc, argv, i,
                        &opts.budgets.interp_steps, &num_ok) ||
               num_flag("--budget-wall-ms", arg, argc, argv, i,
                        &opts.budgets.wall_ms, &num_ok,
                        support::kMaxMillis)) {
      if (!num_ok) {
        std::fprintf(stderr, "deepmc: invalid value for %s\n", arg.c_str());
        return kExitUsage;
      }
    } else if (arg == "--keep-going") {
      opts.keep_going = true;
    } else if (arg == "--fail-fast") {
      opts.keep_going = false;
    } else if (arg == "--list-fault-points") {
      for (const std::string& n : support::registered_fault_points())
        std::printf("%s\n", n.c_str());
      return 0;
    } else if (arg == "--inject-fault" ||
               arg.compare(0, 15, "--inject-fault=") == 0) {
      std::string spec;
      if (arg == "--inject-fault") {
        if (++i >= argc) {
          usage();
          return kExitUsage;
        }
        spec = argv[i];
      } else {
        spec = arg.substr(15);
      }
      try {
        support::arm_fault(spec);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "deepmc: %s\n", e.what());
        return kExitUsage;
      }
    } else if (arg == "--stats") {
      stats = true;
    } else if (str_flag("--metrics-out", arg, argc, argv, i, &metrics_out)) {
      if (metrics_out.empty()) {
        usage();
        return kExitUsage;
      }
    } else if (str_flag("--prom-out", arg, argc, argv, i, &prom_out)) {
      if (prom_out.empty()) {
        usage();
        return kExitUsage;
      }
    } else if (str_flag("--trace-out", arg, argc, argv, i, &trace_out)) {
      if (trace_out.empty()) {
        usage();
        return kExitUsage;
      }
    } else if (str_flag("--flight-out", arg, argc, argv, i, &flight_out)) {
      if (flight_out.empty()) {
        usage();
        return kExitUsage;
      }
    } else if (arg == "--dynamic") {
      opts.dynamic_run = true;
    } else if (arg == "--crashsim") {
      opts.crashsim = true;
    } else if (arg == "--dump-ir") {
      opts.dump_ir = true;
    } else if (arg == "--dump-dsg") {
      opts.dump_dsg = true;
    } else if (arg == "--dump-traces") {
      opts.dump_traces = true;
    } else if (arg == "--field-insensitive") {
      opts.field_sensitive = false;
    } else if (arg == "--suggest") {
      opts.suggest = true;
    } else if (arg == "--jobs" || arg == "-j") {
      if (++i >= argc) {
        usage();
        return kExitUsage;
      }
      char* end = nullptr;
      const unsigned long n = std::strtoul(argv[i], &end, 10);
      if (end == argv[i] || *end != '\0' || n < 1 || n > support::kMaxJobs) {
        std::fprintf(stderr, "deepmc: invalid --jobs value '%s'\n", argv[i]);
        return kExitUsage;
      }
      opts.jobs = static_cast<size_t>(n);
    } else if (arg == "--format") {
      if (++i >= argc) {
        usage();
        return kExitUsage;
      }
      const std::string f = argv[i];
      if (f == "text") {
        format = core::ReportFormat::kText;
      } else if (f == "json") {
        format = core::ReportFormat::kJson;
      } else {
        std::fprintf(stderr, "deepmc: unknown format '%s'\n", f.c_str());
        return kExitUsage;
      }
    } else if (arg == "--suppressions") {
      if (++i >= argc) {
        usage();
        return kExitUsage;
      }
      std::ifstream f(argv[i]);
      if (!f) {
        std::fprintf(stderr, "cannot open %s\n", argv[i]);
        return kExitError;
      }
      std::ostringstream buf;
      buf << f.rdbuf();
      opts.suppressions = core::SuppressionDb::parse(buf.str());
    } else if (arg == "--list-corpus") {
      for (const std::string& n : corpus::module_names())
        std::printf("%s\n", n.c_str());
      return 0;
    } else if (arg == "--corpus") {
      if (++i >= argc) {
        usage();
        return kExitUsage;
      }
      corpus_modules.push_back(argv[i]);
    } else if (arg == "-h" || arg == "--help") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage();
      return kExitUsage;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty() && corpus_modules.empty()) {
    usage();
    return kExitUsage;
  }
  if (std::string env_err; !support::arm_faults_from_env(&env_err)) {
    std::fprintf(stderr, "deepmc: %s\n", env_err.c_str());
    return kExitUsage;
  }

  std::vector<core::AnalysisUnit> units;
  units.reserve(corpus_modules.size() + files.size());
  for (const std::string& name : corpus_modules)
    units.push_back(core::make_corpus_unit(name));
  for (const std::string& file : files)
    units.push_back(core::make_file_unit(file));

  // Any observability sink turns recording on; the report is unaffected
  // either way (asserted by tests/obs_test.cpp and scripts/check.sh).
  if (flight_out.empty()) {
    if (const char* env = std::getenv("DEEPMC_FLIGHT_OUT")) flight_out = env;
  }
  const bool obs_on = stats || !metrics_out.empty() || !prom_out.empty() ||
                      !trace_out.empty() || !flight_out.empty();
  if (obs_on) obs::set_enabled(true);
  if (!trace_out.empty()) obs::tracer().start();
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
  const size_t jobs = opts.jobs == 0
                          ? support::ThreadPool::default_concurrency()
                          : opts.jobs;
  const size_t pool_workers = jobs <= 1 ? 0 : jobs;
  const auto t0 = std::chrono::steady_clock::now();

  core::AnalysisDriver driver(std::move(opts));
  core::Report report = driver.run(units);

  if (format == core::ReportFormat::kJson)
    report.print_json(std::cout);
  else
    report.print_text(std::cout);
  std::cout.flush();

  if (obs_on) {
    // The driver's pool has been joined; every worker shard is retired, so
    // the snapshot is complete and deterministic.
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
    if (!trace_out.empty() && !obs::tracer().write_file(trace_out)) {
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
