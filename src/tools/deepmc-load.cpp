// deepmc-load — high-traffic concurrent workload engine CLI.
//
// Hammers one (or all) of the mini frameworks with a deterministic
// multi-threaded keyed put/get/delete stream, optionally under the
// dynamic checker, optionally with seeded deep bugs and a
// crash-at-random-op recovery cycle. See docs/LOAD.md.
//
// Exit codes follow the repo convention: 0 success, 64 usage error,
// 65 runtime failure (worker error, verification failure, injected fault).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "load/engine.h"
#include "load/serve_driver.h"
#include "load/shards.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "support/faultpoint.h"
#include "support/flags.h"

using namespace deepmc;
using support::num_flag;
using support::real_flag;
using support::str_flag;

namespace {

constexpr int kExitUsage = 64;
constexpr int kExitError = 65;

void usage() {
  std::fprintf(
      stderr,
      "usage: deepmc-load [--framework F|all] [--threads N] [--ops N]\n"
      "                   [--keys N] [--duration SEC] [--mix GET:PUT:DEL]\n"
      "                   [--hot-frac F] [--hot-prob P] [--zipf S] [--seed N]\n"
      "                   [--checker off|shared|per-shard] [--sample N]\n"
      "                   [--seed-bugs] [--crash-at N | --crash-random]\n"
      "                   [--pool-bytes N]\n"
      "                   [--schedule-hash] [--json] [--latency-json]\n"
      "                   [--flight-out FILE]\n"
      "                   [--inject-fault NAME:COUNT] [--list-fault-points]\n"
      "       deepmc-load --serve-connect TARGET [--threads N] [--ops N]\n"
      "                   [--serve-programs N] [--zipf S] [--seed N]\n"
      "                   [--deadline-ms N] [--max-retries N]\n"
      "                   [--retry-budget-ms N] [--json]\n"
      "\n"
      "frameworks: pmdk_mini mnemosyne_mini pmfs_mini nvmdirect_mini\n"
      "\n"
      "--zipf S replaces the hot-set skew with a true bounded Zipfian\n"
      "(p(k) ~ 1/(k+1)^s; 0.99 is the YCSB shape). --serve-connect drives a\n"
      "running `deepmc serve` daemon (socket path or host:port) instead of\n"
      "the in-process frameworks: each thread holds one retrying client and\n"
      "resubmits generated programs, verifying responses stay\n"
      "byte-identical per program.\n"
      "--latency-json times every op into per-op-type histograms (get/put/\n"
      "del) and prints them with p50/p90/p99; --flight-out arms the flight\n"
      "recorder and dumps recent events (JSONL) at exit (also via\n"
      "DEEPMC_FLIGHT_OUT).\n");
}

/// One op-type's latency summary as a flat JSON object. Quantiles are
/// exact rank-based bucket upper bounds (obs::histogram_quantile), so
/// the same histogram always prints the same summary.
void print_latency_entry(const char* indent, const char* name,
                         const obs::HistogramValue& h, bool last) {
  std::printf("%s\"%s\": {\"count\": %llu, \"sum_ns\": %llu, "
              "\"p50_ns\": %llu, \"p90_ns\": %llu, \"p99_ns\": %llu}%s\n",
              indent, name, static_cast<unsigned long long>(h.count),
              static_cast<unsigned long long>(h.sum),
              static_cast<unsigned long long>(obs::histogram_quantile(h, 0.50)),
              static_cast<unsigned long long>(obs::histogram_quantile(h, 0.90)),
              static_cast<unsigned long long>(obs::histogram_quantile(h, 0.99)),
              last ? "" : ",");
}

constexpr const char* kOpNames[3] = {"get", "put", "del"};  // OpKind order

/// Standalone `--latency-json` block (no --json): one object per
/// framework, latency histograms only.
void print_latency_json(const std::vector<load::EngineResult>& results) {
  std::printf("[\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const load::EngineResult& r = results[i];
    std::printf("  {\n    \"framework\": \"%s\",\n    \"latency_ns\": {\n",
                r.framework.c_str());
    for (size_t k = 0; k < 3; ++k)
      print_latency_entry("      ", kOpNames[k], r.latency[k], k == 2);
    std::printf("    }\n  }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::printf("]\n");
}

void print_json(const std::vector<load::EngineResult>& results) {
  std::printf("[\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const load::EngineResult& r = results[i];
    std::printf("  {\n");
    std::printf("    \"framework\": \"%s\",\n", r.framework.c_str());
    std::printf("    \"total_ops\": %llu,\n",
                static_cast<unsigned long long>(r.total_ops));
    std::printf("    \"gets\": %llu, \"puts\": %llu, \"dels\": %llu,\n",
                static_cast<unsigned long long>(r.gets),
                static_cast<unsigned long long>(r.puts),
                static_cast<unsigned long long>(r.dels));
    std::printf("    \"seconds\": %.6f,\n", r.seconds);
    std::printf("    \"ops_per_sec\": %.1f,\n", r.ops_per_sec);
    std::printf("    \"schedule_hash\": \"%llx\",\n",
                static_cast<unsigned long long>(r.schedule_hash));
    std::printf("    \"races\": %llu, \"epoch_mismatches\": %llu,\n",
                static_cast<unsigned long long>(r.races),
                static_cast<unsigned long long>(r.epoch_mismatches));
    std::printf(
        "    \"redundant_flushes\": %llu, \"barrier_violations\": %llu,\n",
        static_cast<unsigned long long>(r.redundant_flushes),
        static_cast<unsigned long long>(r.barrier_violations));
    std::printf("    \"warnings\": %llu,\n",
                static_cast<unsigned long long>(r.warning_keys.size()));
    std::printf("    \"strands\": %llu, \"fences\": %llu, "
                "\"tracked_words\": %llu,\n",
                static_cast<unsigned long long>(r.strands),
                static_cast<unsigned long long>(r.fences),
                static_cast<unsigned long long>(r.tracked_words));
    std::printf("    \"crashes\": %llu, \"recoveries_consistent\": %llu, "
                "\"verify_failures\": %llu,\n",
                static_cast<unsigned long long>(r.crashes),
                static_cast<unsigned long long>(r.recoveries_consistent),
                static_cast<unsigned long long>(r.verify_failures));
    if (r.latency_measured) {
      std::printf("    \"latency_ns\": {\n");
      for (size_t k = 0; k < 3; ++k)
        print_latency_entry("      ", kOpNames[k], r.latency[k], k == 2);
      std::printf("    },\n");
    }
    std::printf("    \"ok\": %s\n", r.ok ? "true" : "false");
    std::printf("  }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::printf("]\n");
}

void print_text(const load::EngineResult& r, load::CheckerMode mode) {
  std::printf("%-15s checker=%-9s %10llu ops in %6.2fs  %12.0f ops/s\n",
              r.framework.c_str(), load::checker_mode_name(mode),
              static_cast<unsigned long long>(r.total_ops), r.seconds,
              r.ops_per_sec);
  std::printf("  mix: %llu get / %llu put / %llu del   schedule=%llx\n",
              static_cast<unsigned long long>(r.gets),
              static_cast<unsigned long long>(r.puts),
              static_cast<unsigned long long>(r.dels),
              static_cast<unsigned long long>(r.schedule_hash));
  if (mode != load::CheckerMode::kOff)
    std::printf("  checker: %llu strand race(s), %llu epoch mismatch(es), "
                "%llu redundant flush(es), %llu unfenced tx, "
                "%llu tracked words\n",
                static_cast<unsigned long long>(r.races),
                static_cast<unsigned long long>(r.epoch_mismatches),
                static_cast<unsigned long long>(r.redundant_flushes),
                static_cast<unsigned long long>(r.barrier_violations),
                static_cast<unsigned long long>(r.tracked_words));
  if (r.crashes > 0)
    std::printf("  crash: %llu cycle(s), %llu consistent, "
                "%llu verify failure(s)\n",
                static_cast<unsigned long long>(r.crashes),
                static_cast<unsigned long long>(r.recoveries_consistent),
                static_cast<unsigned long long>(r.verify_failures));
  if (r.latency_measured) {
    for (size_t k = 0; k < 3; ++k) {
      const obs::HistogramValue& h = r.latency[k];
      std::printf("  lat %-4s p50=%lluns p90=%lluns p99=%lluns (n=%llu)\n",
                  kOpNames[k],
                  static_cast<unsigned long long>(
                      obs::histogram_quantile(h, 0.50)),
                  static_cast<unsigned long long>(
                      obs::histogram_quantile(h, 0.90)),
                  static_cast<unsigned long long>(
                      obs::histogram_quantile(h, 0.99)),
                  static_cast<unsigned long long>(h.count));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  load::EngineConfig cfg;
  std::string framework = "pmdk_mini";
  std::string checker = "shared";
  std::string mix;
  bool json = false;
  bool latency_json = false;
  std::string flight_out;
  bool hash_only = false;
  uint64_t sample = 1;
  uint64_t crash_at = 0;
  bool have_crash_at = false;
  std::string serve_target;
  uint64_t serve_programs = 8, deadline_ms = 0;
  uint64_t max_retries = 4, retry_budget_ms = 2000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = false;
    uint64_t threads = 0, ops = 0, keys = 0, seed = 0, pool_bytes = 0;
    if (str_flag("--framework", arg, argc, argv, i, &framework) ||
        str_flag("--checker", arg, argc, argv, i, &checker) ||
        str_flag("--mix", arg, argc, argv, i, &mix) ||
        str_flag("--serve-connect", arg, argc, argv, i, &serve_target) ||
        str_flag("--flight-out", arg, argc, argv, i, &flight_out)) {
      continue;
    } else if (num_flag("--serve-programs", arg, argc, argv, i,
                        &serve_programs, &ok)) {
    } else if (num_flag("--deadline-ms", arg, argc, argv, i, &deadline_ms,
                        &ok)) {
    } else if (num_flag("--max-retries", arg, argc, argv, i, &max_retries,
                        &ok)) {
    } else if (num_flag("--retry-budget-ms", arg, argc, argv, i,
                        &retry_budget_ms, &ok)) {
    } else if (num_flag("--threads", arg, argc, argv, i, &threads, &ok)) {
      if (ok) cfg.spec.threads = static_cast<uint32_t>(threads);
    } else if (num_flag("--ops", arg, argc, argv, i, &ops, &ok)) {
      if (ok) cfg.spec.ops_per_thread = ops;
    } else if (num_flag("--keys", arg, argc, argv, i, &keys, &ok)) {
      if (ok) cfg.spec.keys = keys;
    } else if (num_flag("--seed", arg, argc, argv, i, &seed, &ok)) {
      if (ok) cfg.spec.seed = seed;
    } else if (num_flag("--sample", arg, argc, argv, i, &sample, &ok)) {
    } else if (num_flag("--crash-at", arg, argc, argv, i, &crash_at, &ok)) {
      if (ok) have_crash_at = true;
    } else if (num_flag("--pool-bytes", arg, argc, argv, i, &pool_bytes,
                        &ok)) {
      if (ok) cfg.pool_bytes = pool_bytes;
    } else if (real_flag("--duration", arg, argc, argv, i,
                         &cfg.spec.duration_s, &ok) ||
               real_flag("--hot-frac", arg, argc, argv, i, &cfg.spec.hot_frac,
                         &ok) ||
               real_flag("--hot-prob", arg, argc, argv, i, &cfg.spec.hot_prob,
                         &ok)) {
    } else if (real_flag("--zipf", arg, argc, argv, i, &cfg.spec.zipf_s,
                         &ok)) {
      if (ok && cfg.spec.zipf_s < 0) {
        std::fprintf(stderr, "deepmc-load: --zipf must be >= 0\n");
        return kExitUsage;
      }
    } else if (arg == "--seed-bugs") {
      cfg.seed_bugs = true;
      ok = true;
    } else if (arg == "--crash-random") {
      cfg.crash_random = true;
      ok = true;
    } else if (arg == "--json") {
      json = true;
      ok = true;
    } else if (arg == "--latency-json") {
      latency_json = true;
      cfg.measure_latency = true;
      ok = true;
    } else if (arg == "--schedule-hash") {
      hash_only = true;
      ok = true;
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
        ok = true;
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "deepmc-load: %s\n", e.what());
        return kExitUsage;
      }
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "deepmc-load: unknown argument '%s'\n",
                   arg.c_str());
      usage();
      return kExitUsage;
    }
    if (!ok) {
      std::fprintf(stderr, "deepmc-load: invalid value for %s\n", arg.c_str());
      return kExitUsage;
    }
  }

  if (std::string env_err; !support::arm_faults_from_env(&env_err)) {
    std::fprintf(stderr, "deepmc-load: %s\n", env_err.c_str());
    return kExitUsage;
  }
  // Flight recorder: crash cycles, fault trips and checker warnings show
  // up in the dump, so a failed load run leaves execution evidence.
  if (flight_out.empty()) {
    if (const char* env = std::getenv("DEEPMC_FLIGHT_OUT")) flight_out = env;
  }
  if (!flight_out.empty()) obs::flight().arm();

  if (!mix.empty()) {
    unsigned g = 0, p = 0, d = 0;
    if (std::sscanf(mix.c_str(), "%u:%u:%u", &g, &p, &d) != 3 ||
        g + p + d != 100) {
      std::fprintf(stderr,
                   "deepmc-load: --mix expects GET:PUT:DEL summing to 100\n");
      return kExitUsage;
    }
    cfg.spec.mix = {g, p, d};
  }

  if (checker == "off") {
    cfg.checker = load::CheckerMode::kOff;
  } else if (checker == "shared") {
    cfg.checker = load::CheckerMode::kShared;
  } else if (checker == "per-shard") {
    cfg.checker = load::CheckerMode::kPerShard;
  } else {
    std::fprintf(stderr, "deepmc-load: --checker must be off, shared or "
                         "per-shard\n");
    return kExitUsage;
  }
  cfg.rt_opts.sample_period = static_cast<uint32_t>(sample);
  if (have_crash_at) cfg.crash_at = static_cast<int64_t>(crash_at);

  if (hash_only) {
    std::printf("%llx\n", static_cast<unsigned long long>(
                              load::schedule_hash(cfg.spec)));
    return 0;
  }

  if (!serve_target.empty()) {
    load::ServeLoadConfig scfg;
    scfg.target = serve_target;
    scfg.spec = cfg.spec;
    scfg.programs = serve_programs;
    scfg.deadline_ms = deadline_ms;
    scfg.retry.max_retries = static_cast<int>(max_retries);
    scfg.retry.retry_budget_ms = retry_budget_ms;
    const load::ServeLoadResult r = load::run_serve_load(scfg);
    if (json) {
      std::printf(
          "{\"target\": \"%s\", \"requests\": %llu, \"ok\": %llu, "
          "\"failures\": %llu, \"mismatches\": %llu, "
          "\"deadline_expired\": %llu, \"attempts\": %llu, "
          "\"retries\": %llu, \"overloaded\": %llu, \"reconnects\": %llu, "
          "\"seconds\": %.6f, \"requests_per_sec\": %.1f}\n",
          serve_target.c_str(), static_cast<unsigned long long>(r.requests),
          static_cast<unsigned long long>(r.ok),
          static_cast<unsigned long long>(r.failures),
          static_cast<unsigned long long>(r.mismatches),
          static_cast<unsigned long long>(r.deadline_expired),
          static_cast<unsigned long long>(r.attempts),
          static_cast<unsigned long long>(r.retries),
          static_cast<unsigned long long>(r.overloaded),
          static_cast<unsigned long long>(r.reconnects), r.seconds,
          r.requests_per_sec);
    } else {
      std::printf("serve %-24s %8llu req in %6.2fs  %10.0f req/s\n",
                  serve_target.c_str(),
                  static_cast<unsigned long long>(r.requests), r.seconds,
                  r.requests_per_sec);
      std::printf("  ok=%llu failures=%llu mismatches=%llu "
                  "deadline_expired=%llu\n",
                  static_cast<unsigned long long>(r.ok),
                  static_cast<unsigned long long>(r.failures),
                  static_cast<unsigned long long>(r.mismatches),
                  static_cast<unsigned long long>(r.deadline_expired));
      std::printf("  client: attempts=%llu retries=%llu overloaded=%llu "
                  "reconnects=%llu\n",
                  static_cast<unsigned long long>(r.attempts),
                  static_cast<unsigned long long>(r.retries),
                  static_cast<unsigned long long>(r.overloaded),
                  static_cast<unsigned long long>(r.reconnects));
    }
    if (!r.passed()) {
      std::fprintf(stderr, "deepmc-load: serve storm failed: %s\n",
                   r.error.empty() ? "request failures" : r.error.c_str());
      return kExitError;
    }
    return 0;
  }

  std::vector<std::string> frameworks;
  if (framework == "all")
    frameworks = load::framework_names();
  else
    frameworks.push_back(framework);

  std::vector<load::EngineResult> results;
  int exit_code = 0;
  for (const std::string& fw : frameworks) {
    cfg.framework = fw;
    try {
      load::EngineResult r = load::run_load(cfg);
      if (!r.fault_tripped.empty()) {
        std::fprintf(stderr, "deepmc-load: fault injected: %s\n",
                     r.fault_tripped.c_str());
        exit_code = kExitError;
      } else if (!r.ok) {
        std::fprintf(stderr,
                     "deepmc-load: %s failed verification "
                     "(%llu verify failures, %llu/%llu recoveries)\n",
                     fw.c_str(),
                     static_cast<unsigned long long>(r.verify_failures),
                     static_cast<unsigned long long>(r.recoveries_consistent),
                     static_cast<unsigned long long>(r.crashes));
        exit_code = kExitError;
      }
      if (!json) print_text(r, cfg.checker);
      results.push_back(std::move(r));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "deepmc-load: %s: %s\n", fw.c_str(), e.what());
      return kExitError;
    }
  }
  if (json) print_json(results);
  if (latency_json && !json) print_latency_json(results);
  if (!flight_out.empty() && !obs::flight().dump_file(flight_out))
    std::fprintf(stderr, "deepmc-load: cannot write flight log %s\n",
                 flight_out.c_str());
  return exit_code;
}
