// deepmc-load — high-traffic concurrent workload engine CLI.
//
// Hammers one (or all) of the mini frameworks with a deterministic
// multi-threaded keyed put/get/delete stream, optionally under the
// dynamic checker, optionally with seeded deep bugs and a
// crash-at-random-op recovery cycle. See docs/LOAD.md.
//
// Exit codes follow the repo convention: 0 success, 64 usage error,
// 65 runtime failure (worker error, verification failure, injected fault).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
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

namespace {

constexpr int kExitError = 65;

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

/// `--framework`: a mini framework's name, or all of them.
support::Handler framework_flag(std::string* field) {
  return [field](const std::string& name) {
    const std::vector<std::string>& names = load::framework_names();
    if (name != "all" &&
        std::find(names.begin(), names.end(), name) == names.end())
      return false;
    *field = name;
    return true;
  };
}

/// A fraction in [0, 1], in strtod syntax spanning the whole operand.
support::Handler fraction_flag(double* field) {
  return [field](const std::string& text) {
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !(v >= 0 && v <= 1)) return false;
    *field = v;
    return true;
  };
}

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
  load::ServeLoadConfig scfg;
  std::string checker = "shared";
  bool json = false;
  bool latency_json = false;
  std::string flight_out;
  bool hash_only = false;
  const support::Command cmd{
      "deepmc-load",
      {"deepmc-load [--framework NAME|all] [--threads N] [--ops N] [options]",
       "deepmc-load --serve-connect TARGET [--threads N] [--ops N] [options]"},
      {
          {"--framework", "NAME", framework_flag(&cfg.framework),
           "mini framework, or all (default pmdk_mini)"},
          {"--threads", "N", &cfg.spec.threads, "worker threads (default 8)",
           support::kMaxJobs, 1},
          {"--ops", "N", &cfg.spec.ops_per_thread,
           "ops (or requests) per thread (default 100000)"},
          {"--keys", "N", &cfg.spec.keys, "key space per shard (default 1024)"},
          {"--duration", "SEC", &cfg.spec.duration_s,
           "stop on wall clock instead of op count"},
          {"--mix", "GET:PUT:DEL",
           [&](const std::string& text) {
             unsigned g = 0, p = 0, d = 0;
             if (std::sscanf(text.c_str(), "%u:%u:%u", &g, &p, &d) != 3 ||
                 g + p + d != 100)
               return false;
             cfg.spec.mix = {g, p, d};
             return true;
           },
           "percentages summing to 100 (default 50:40:10)"},
          {"--hot-frac", "F", fraction_flag(&cfg.spec.hot_frac),
           "fraction of keys in the hot set, 0-1 (default 0.2)"},
          {"--hot-prob", "P", fraction_flag(&cfg.spec.hot_prob),
           "chance an op hits the hot set, 0-1 (default 0.8)"},
          {"--zipf", "S", &cfg.spec.zipf_s,
           "Zipf skew in place of the hot set (YCSB: 0.99)"},
          {"--seed", "N", &cfg.spec.seed, "workload seed (default 42)"},
          {"--checker", "off|shared|per-shard", &checker,
           "runtime checker mode (default shared)"},
          {"--sample", "N", &cfg.rt_opts.sample_period,
           "run the checker on every Nth event (default 1)"},
          {"--seed-bugs", nullptr, &cfg.seed_bugs,
           "plant the deterministic deep bugs"},
          {"--crash-at", "N", &cfg.crash_at,
           "crash worker 0 near op N, then verify recovery"},
          {"--crash-random", nullptr, &cfg.crash_random,
           "crash at an op picked from the seed"},
          {"--pool-bytes", "N", &cfg.pool_bytes,
           "per-worker pool size (default 8 MiB)"},
          {"--schedule-hash", nullptr, &hash_only,
           "print the op schedule's hash and exit"},
          {"--json", nullptr, &json, "print the results as JSON"},
          {"--latency-json", nullptr, &latency_json,
           "time every op; print p50/p90/p99 per op type"},
          support::inject_fault_flag(),
          support::list_fault_points_flag(),
          support::flight_out_flag(&flight_out),
          {"--help|-h", nullptr, support::Help{}, "print this help"},
          support::heading("driving a deepmc serve daemon"),
          {"--serve-connect", "TARGET", &scfg.target,
           "drive the daemon at a socket path or HOST:PORT"},
          {"--serve-programs", "N", &scfg.programs,
           "distinct generated programs (default 8)"},
          {"--deadline-ms", "N", &scfg.deadline_ms,
           "per-request deadline (0 = none)", support::kMaxMillis},
          {"--max-retries", "N", &scfg.retry.max_retries,
           "retries of retryable failures (default 4)"},
          {"--retry-budget-ms", "N", &scfg.retry.retry_budget_ms,
           "wall-clock cap across retries (default 2000)",
           support::kMaxMillis},
      },
      {},
      "frameworks: pmdk_mini mnemosyne_mini pmfs_mini nvmdirect_mini\n"};
  if (auto rc = support::parse_flags(cmd, argc - 1, argv + 1)) return *rc;
  if (cfg.spec.zipf_s < 0)
    return support::usage_error(cmd, "--zipf must be >= 0");

  if (std::string env_err; !support::arm_faults_from_env(&env_err)) {
    std::fprintf(stderr, "deepmc-load: %s\n", env_err.c_str());
    return support::kExitUsage;
  }
  // Flight recorder: crash cycles, fault trips and checker warnings show
  // up in the dump, so a failed load run leaves execution evidence.
  if (!flight_out.empty()) obs::flight().arm();

  cfg.checker = checker == "off"      ? load::CheckerMode::kOff
                : checker == "shared" ? load::CheckerMode::kShared
                                      : load::CheckerMode::kPerShard;
  cfg.measure_latency = latency_json;

  if (hash_only) {
    std::printf("%llx\n", static_cast<unsigned long long>(
                              load::schedule_hash(cfg.spec)));
    return 0;
  }

  if (!scfg.target.empty()) {
    scfg.spec = cfg.spec;
    const load::ServeLoadResult r = load::run_serve_load(scfg);
    if (json) {
      std::printf(
          "{\"target\": \"%s\", \"requests\": %llu, \"ok\": %llu, "
          "\"failures\": %llu, \"mismatches\": %llu, "
          "\"deadline_expired\": %llu, \"attempts\": %llu, "
          "\"retries\": %llu, \"overloaded\": %llu, \"reconnects\": %llu, "
          "\"seconds\": %.6f, \"requests_per_sec\": %.1f}\n",
          scfg.target.c_str(), static_cast<unsigned long long>(r.requests),
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
                  scfg.target.c_str(),
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
  if (cfg.framework == "all")
    frameworks = load::framework_names();
  else
    frameworks.push_back(cfg.framework);

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
