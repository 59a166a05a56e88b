// deepmc-corpus — the corpus-scale regression harness over generated
// programs (docs/CORPUS.md describes both commands and their flags).
//
//   deepmc-corpus gen --seed N [options]     print one generated program
//   deepmc-corpus run --count N [options]    generate + analyze a corpus
//
// Exit codes: 0 ok; 1 floor/baseline/cross-check regression; 64 usage;
// 65 internal failure (a generated program failed to build or analyze —
// the harness's "no crash" property).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis_driver.h"
#include "gen/generator.h"
#include "gen/score.h"
#include "ir/parser.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "support/flags.h"
#include "support/str.h"
#include "support/thread_pool.h"

using namespace deepmc;

namespace {

constexpr int kExitRegression = 1;
constexpr int kExitInternal = 65;

std::optional<corpus::Framework> parse_framework(const std::string& name) {
  for (int i = 0; i < 4; ++i) {
    const auto f = static_cast<corpus::Framework>(i);
    if (name == corpus::framework_name(f)) return f;
  }
  return std::nullopt;
}

// --------------------------------------------------------------------------
// gen
// --------------------------------------------------------------------------

struct GenArgs {
  std::optional<uint64_t> seed;
  std::optional<corpus::Framework> framework;
  bool clean = false;
  bool manifest_only = false;
  uint64_t mutate = 0;
  std::optional<uint64_t> mutate_seed;
  std::optional<uint64_t> touch_salt;
};

support::Command gen_command(GenArgs& a) {
  return {
      "deepmc-corpus gen",
      {"deepmc-corpus gen --seed N [options]"},
      {
          {"--seed", "N", &a.seed, "generator seed (required)"},
          {"--framework", "F",
           [&a](const std::string& name) {
             a.framework = parse_framework(name);
             return a.framework.has_value();
           },
           "PMDK, PMFS, NVM-Direct or Mnemosyne (default: by seed)"},
          {"--clean", nullptr, &a.clean,
           "force a guaranteed-clean control program"},
          {"--manifest", nullptr, &a.manifest_only,
           "print the deepmc-manifest-v1 JSON instead of MIR"},
          {"--mutate", "N", &a.mutate,
           "corrupt N tokens of the program text (no manifest)"},
          {"--mutate-seed", "M", &a.mutate_seed,
           "mutation seed (default: the --seed)"},
          {"--touch-function", "S", &a.touch_salt,
           "change one function's content, salted by S"},
      }};
}

int cmd_gen(const support::Command& cmd, const GenArgs& a) {
  if (!a.seed) return support::usage_error(cmd, "--seed N is required");
  gen::GenOptions opts;
  opts.seed = *a.seed;
  opts.framework = a.framework;
  opts.force_clean = a.clean;
  gen::GeneratedProgram prog = gen::generate_program(opts);

  if (a.manifest_only) {
    std::fputs(gen::manifest_json(prog.manifest).c_str(), stdout);
    return 0;
  }
  if (a.mutate > 0) {
    const uint64_t mseed = a.mutate_seed.value_or(opts.seed);
    std::fputs(gen::mutate_text(prog.text, mseed, a.mutate).c_str(), stdout);
    return 0;
  }
  if (a.touch_salt) {
    // Single-function variant for analysis-server resubmission streams:
    // same program, one function's content changed.
    std::fputs(gen::touch_function(prog.text, *a.touch_salt).c_str(), stdout);
    return 0;
  }
  std::fputs(prog.text.c_str(), stdout);
  return 0;
}

// --------------------------------------------------------------------------
// run
// --------------------------------------------------------------------------

/// Everything one seed contributes to the corpus report. Results are
/// merged in seed order, so the stable section is independent of --jobs.
struct SeedResult {
  gen::Score score;
  bool failed = false;
  std::string error;
  size_t parse_diagnostics = 0;  ///< tolerant round-trip diagnostics (must be 0)
  bool crashsim_ran = false;
  bool serve_checked = false;  ///< daemon-path byte-identity verified
};

SeedResult analyze_seed(uint64_t seed, uint64_t clean_every,
                        uint64_t crashsim_sample, uint64_t index,
                        serve::AnalysisService* service) {
  SeedResult out;
  try {
    gen::GenOptions gopts;
    gopts.seed = seed;
    gopts.force_clean = clean_every != 0 && index % clean_every == 0;
    gen::GeneratedProgram prog = gen::generate_program(gopts);

    // Round-trip sanity: printed text must parse back without diagnostics.
    ir::TolerantParseResult round = ir::parse_module_tolerant(prog.text);
    out.parse_diagnostics = round.diagnostics.size();
    if (!round.module) {
      out.failed = true;
      out.error = strformat("seed %llu: printed text did not parse back",
                            static_cast<unsigned long long>(seed));
      return out;
    }

    core::DriverOptions dopts;
    dopts.model = prog.model;
    dopts.jobs = 1;  // outer pool parallelizes across seeds
    // Sample at the *end* of each stride, not the start: index 0 of every
    // clean-every stride is a forced-clean control, and sampling only
    // controls would cross-check nothing.
    out.crashsim_ran =
        crashsim_sample != 0 && index % crashsim_sample == crashsim_sample - 1;
    dopts.crashsim = out.crashsim_ran;
    core::AnalysisDriver driver(dopts);
    std::vector<core::AnalysisUnit> units;
    units.push_back(
        core::make_source_unit(prog.name, prog.text, prog.model));
    core::Report report = driver.run(units);
    const core::UnitReport& unit = report.units().at(0);
    if (unit.failed) {
      out.failed = true;
      out.error = strformat("seed %llu: unit failed: %s",
                            static_cast<unsigned long long>(seed),
                            unit.error.c_str());
      return out;
    }
    for (const core::Warning& w : unit.result.warnings()) {
      if (w.loc.file.empty() || w.loc.line == 0) {
        out.failed = true;
        out.error = strformat("seed %llu: warning with invalid location",
                              static_cast<unsigned long long>(seed));
        return out;
      }
    }
    out.score = gen::score_program(prog.manifest, gen::warnings_of(unit));

    // Serve cross-check: the incremental server must answer with the
    // exact bytes of the one-shot run above, cold (fresh cache entry)
    // and warm (replayed entry). Crashsim-sampled seeds are skipped —
    // crashsim is outside the serve cache's representable configuration.
    if (service != nullptr && !out.crashsim_ran) {
      const std::string expect = report.json(false);
      serve::RequestOptions ropts;
      ropts.model = prog.model;
      ropts.format = core::ReportFormat::kJson;
      const serve::ServeResult cold =
          service->analyze_report(prog.name, prog.text, ropts);
      const serve::ServeResult warm =
          service->analyze_report(prog.name, prog.text, ropts);
      if (cold.body != expect || warm.body != expect) {
        out.failed = true;
        out.error = strformat(
            "seed %llu: serve response diverged from one-shot run "
            "(cold %s, warm %s)",
            static_cast<unsigned long long>(seed),
            cold.body == expect ? "ok" : "mismatch",
            warm.body == expect ? "ok" : "mismatch");
        return out;
      }
      out.serve_checked = true;
    }
  } catch (const std::exception& e) {
    out.failed = true;
    out.error = strformat("seed %llu: %s",
                          static_cast<unsigned long long>(seed), e.what());
  }
  return out;
}

std::string corpus_json(const gen::Score& s, uint64_t count,
                        uint64_t seed_start, uint64_t failures,
                        uint64_t parse_diagnostics, uint64_t crashsim_sampled,
                        bool serve_mode, uint64_t serve_checked,
                        uint64_t jobs, double elapsed_ms) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"deepmc-corpus-v1\",\n";
  out += "  \"stable\": {\n";
  out += strformat("    \"count\": %llu,\n",
                   static_cast<unsigned long long>(count));
  out += strformat("    \"seed_start\": %llu,\n",
                   static_cast<unsigned long long>(seed_start));
  out += strformat("    \"programs\": %llu,\n",
                   static_cast<unsigned long long>(s.programs));
  out += strformat("    \"clean_programs\": %llu,\n",
                   static_cast<unsigned long long>(s.clean_programs));
  out += strformat("    \"failures\": %llu,\n",
                   static_cast<unsigned long long>(failures));
  out += strformat("    \"parse_diagnostics\": %llu,\n",
                   static_cast<unsigned long long>(parse_diagnostics));
  out += strformat("    \"planted\": %llu,\n",
                   static_cast<unsigned long long>(s.planted));
  out += strformat("    \"reported\": %llu,\n",
                   static_cast<unsigned long long>(s.reported));
  out += strformat("    \"tp\": %llu,\n", static_cast<unsigned long long>(s.tp));
  out += strformat("    \"fp\": %llu,\n", static_cast<unsigned long long>(s.fp));
  out += strformat("    \"fn\": %llu,\n", static_cast<unsigned long long>(s.fn));
  out += strformat("    \"rule_mismatches\": %llu,\n",
                   static_cast<unsigned long long>(s.rule_mismatches));
  out += strformat("    \"precision\": %.6f,\n", s.precision());
  out += strformat("    \"recall\": %.6f,\n", s.recall());
  if (serve_mode) {
    // Per-seed counts only: daemon throughput belongs in the volatile
    // section, but these totals are deterministic at any --jobs.
    out += strformat("    \"serve\": {\"checked\": %llu},\n",
                     static_cast<unsigned long long>(serve_checked));
  }
  out += "    \"by_kind\": [\n";
  for (size_t i = 0; i < gen::kBugKindCount; ++i) {
    out += strformat(
        "      {\"kind\": \"%s\", \"planted\": %llu, \"detected\": %llu}%s\n",
        gen::bug_kind_name(static_cast<gen::BugKind>(i)),
        static_cast<unsigned long long>(s.planted_by_kind[i]),
        static_cast<unsigned long long>(s.detected_by_kind[i]),
        i + 1 < gen::kBugKindCount ? "," : "");
  }
  out += "    ],\n";
  out += "    \"crashsim\": {\n";
  out += strformat("      \"sampled\": %llu,\n",
                   static_cast<unsigned long long>(crashsim_sampled));
  out += strformat("      \"confirmed_tp\": %llu,\n",
                   static_cast<unsigned long long>(s.confirmed_tp));
  out += strformat("      \"confirmed_outside_manifest\": %llu,\n",
                   static_cast<unsigned long long>(s.confirmed_outside_manifest));
  out += strformat("      \"not_reproduced\": %llu,\n",
                   static_cast<unsigned long long>(s.not_reproduced));
  out += strformat("      \"skipped\": %llu\n",
                   static_cast<unsigned long long>(s.skipped));
  out += "    }\n";
  out += "  },\n";
  out += "  \"volatile\": {\n";
  out += strformat("    \"jobs\": %llu,\n",
                   static_cast<unsigned long long>(jobs));
  out += strformat("    \"elapsed_ms\": %.3f,\n", elapsed_ms);
  out += strformat("    \"programs_per_sec\": %.1f\n",
                   elapsed_ms > 0 ? 1000.0 * static_cast<double>(count) /
                                        elapsed_ms
                                  : 0.0);
  out += "  }\n";
  out += "}\n";
  return out;
}

struct RunArgs {
  uint64_t count = 0;
  uint64_t seed_start = 0;
  uint64_t jobs = 0;
  uint64_t clean_every = 5;
  uint64_t crashsim_sample = 0;
  double min_recall = 0;
  double min_precision = 0;
  std::string baseline_path;
  std::string out_path;
  bool serve_mode = false;
  std::string serve_cache;
};

support::Command run_command(RunArgs& a) {
  return {
      "deepmc-corpus run",
      {"deepmc-corpus run --count N [options]"},
      {
          {"--count", "N", &a.count,
           "programs to generate and analyze (required)"},
          {"--seed-start", "S", &a.seed_start,
           "first seed (default 0); seeds are S..S+N-1"},
          {"--jobs", "J", &a.jobs,
           "analysis threads (0 = hardware, the default; 1 = serial)",
           support::kMaxJobs},
          {"--clean-every", "K", &a.clean_every,
           "force every Kth program clean (default 5; 0 = none)"},
          {"--crashsim-sample", "K", &a.crashsim_sample,
           "cross-check every Kth program under crashsim (0 = off)"},
          {"--min-recall", "R", &a.min_recall,
           "exit 1 when recall < R (default 0: off)"},
          {"--min-precision", "P", &a.min_precision,
           "exit 1 when precision < P (default 0: off)"},
          {"--baseline", "FILE", &a.baseline_path,
           "exit 1 when precision or recall falls below FILE's"},
          {"--out", "FILE", &a.out_path,
           "write the deepmc-corpus-v1 JSON there (default stdout)"},
          {"--serve", nullptr, &a.serve_mode,
           "also check each program's serve answer, cold and warm"},
          {"--serve-cache", "DIR", &a.serve_cache,
           "the serve check's cache directory"},
      }};
}

int cmd_run(const support::Command& cmd, const RunArgs& a) {
  if (a.count == 0)
    return support::usage_error(cmd, "--count N (at least 1) is required");

  const auto t0 = std::chrono::steady_clock::now();
  // One in-process service shared by every seed, like the daemon shares
  // one across connections. Its inner driver stays serial (jobs=1 →
  // inline pool, safe to call from many outer workers at once); the
  // outer pool provides the parallelism.
  std::unique_ptr<serve::AnalysisService> service;
  if (a.serve_mode) {
    serve::ServeOptions sopts;
    sopts.driver.jobs = 1;
    sopts.cache_dir = a.serve_cache;
    service = std::make_unique<serve::AnalysisService>(std::move(sopts));
  }
  support::ThreadPool pool(support::ThreadPool::workers_for(a.jobs));
  std::vector<std::future<SeedResult>> futures;
  futures.reserve(a.count);
  for (uint64_t i = 0; i < a.count; ++i) {
    const uint64_t seed = a.seed_start + i;
    futures.push_back(pool.submit([seed, &a, i, &service] {
      return analyze_seed(seed, a.clean_every, a.crashsim_sample, i,
                          service.get());
    }));
  }

  gen::Score total;
  uint64_t failures = 0;
  uint64_t parse_diagnostics = 0;
  uint64_t crashsim_sampled = 0;
  uint64_t serve_checked = 0;
  for (auto& fut : futures) {
    SeedResult r = pool.await(std::move(fut));
    if (r.failed) {
      ++failures;
      std::fprintf(stderr, "deepmc-corpus: %s\n", r.error.c_str());
      continue;
    }
    parse_diagnostics += r.parse_diagnostics;
    if (r.crashsim_ran) ++crashsim_sampled;
    if (r.serve_checked) ++serve_checked;
    total.merge(r.score);
  }
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  const std::string json = corpus_json(
      total, a.count, a.seed_start, failures, parse_diagnostics,
      crashsim_sampled, a.serve_mode, serve_checked,
      support::ThreadPool::resolve_jobs(a.jobs), elapsed_ms);
  if (a.out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::ofstream f(a.out_path);
    if (!f) {
      std::fprintf(stderr, "deepmc-corpus: cannot write %s\n",
                   a.out_path.c_str());
      return kExitInternal;
    }
    f << json;
  }

  if (failures > 0) {
    std::fprintf(stderr, "deepmc-corpus: %llu of %llu programs failed\n",
                 static_cast<unsigned long long>(failures),
                 static_cast<unsigned long long>(a.count));
    return kExitInternal;
  }
  int rc = 0;
  if (total.confirmed_outside_manifest > 0) {
    std::fprintf(stderr,
                 "deepmc-corpus: crashsim confirmed %llu warnings not in any "
                 "manifest (generator ground truth is wrong)\n",
                 static_cast<unsigned long long>(
                     total.confirmed_outside_manifest));
    rc = kExitRegression;
  }
  if (a.min_recall > 0 && total.recall() < a.min_recall) {
    std::fprintf(stderr, "deepmc-corpus: recall %.6f below floor %.6f\n",
                 total.recall(), a.min_recall);
    rc = kExitRegression;
  }
  if (a.min_precision > 0 && total.precision() < a.min_precision) {
    std::fprintf(stderr, "deepmc-corpus: precision %.6f below floor %.6f\n",
                 total.precision(), a.min_precision);
    rc = kExitRegression;
  }
  if (!a.baseline_path.empty()) {
    std::ifstream f(a.baseline_path);
    if (!f) {
      std::fprintf(stderr, "deepmc-corpus: cannot read baseline %s\n",
                   a.baseline_path.c_str());
      return kExitInternal;
    }
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string base = ss.str();
    const auto base_recall = serve::json_num_field(base, "recall");
    const auto base_precision = serve::json_num_field(base, "precision");
    if (!base_recall || !base_precision) {
      std::fprintf(stderr,
                   "deepmc-corpus: baseline %s lacks precision/recall\n",
                   a.baseline_path.c_str());
      return kExitInternal;
    }
    if (total.recall() < *base_recall) {
      std::fprintf(stderr,
                   "deepmc-corpus: recall %.6f regressed below baseline "
                   "%.6f\n",
                   total.recall(), *base_recall);
      rc = kExitRegression;
    }
    if (total.precision() < *base_precision) {
      std::fprintf(stderr,
                   "deepmc-corpus: precision %.6f regressed below baseline "
                   "%.6f\n",
                   total.precision(), *base_precision);
      rc = kExitRegression;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  GenArgs gen_args;
  RunArgs run_args;
  const support::Command gen = gen_command(gen_args);
  const support::Command run = run_command(run_args);
  const std::string sub = argc >= 2 ? argv[1] : "";
  if (sub == "gen" || sub == "run") {
    const support::Command& cmd = sub == "gen" ? gen : run;
    if (auto rc = support::parse_flags(cmd, argc - 2, argv + 2)) return *rc;
    return sub == "gen" ? cmd_gen(gen, gen_args) : cmd_run(run, run_args);
  }
  std::fprintf(stderr, "deepmc-corpus: %s\n",
               sub.empty() ? "no command (gen or run)"
                           : ("unknown command " + sub).c_str());
  support::print_usage(gen, stderr);
  std::fputc('\n', stderr);
  support::print_usage(run, stderr);
  return support::kExitUsage;
}
