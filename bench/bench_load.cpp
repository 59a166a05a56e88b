// High-traffic workload bench: the Figure 12 analog for the
// dynamic-checker runtime. For every mini framework, `deepmc-load`'s
// engine (src/load/) replays the same 8-thread, 1M+-op keyed KV schedule
// three times — checker off (framework-only baseline), checker shared (one
// RuntimeChecker instrumenting all workers) and checker per-shard (one
// RuntimeChecker per worker) — and reports ops/sec, the overhead ratio
// off/shared, and shared/per-shard: how much of the per-worker checkers'
// throughput one shared checker keeps (reported, not gated).
//
// Pass criteria (scripts/bench.sh load gate):
//   * every run completes every op with zero verify failures and an
//     identical schedule hash (same execution, instrumented or not), and
//   * checker-on throughput is within --max-overhead (default 16x) of the
//     baseline on every framework.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "load/engine.h"
#include "load/shards.h"

using namespace deepmc;

namespace {
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3g", v);
  return buf;
}
}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_out_path(argc, argv);
  uint32_t threads = 8;
  uint64_t ops_per_thread = 125000;  // 8 x 125k = 1M ops per run
  double max_overhead = 16.0;
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") threads = uint32_t(std::atoi(argv[i + 1]));
    if (arg == "--ops") ops_per_thread = uint64_t(std::atoll(argv[i + 1]));
    if (arg == "--max-overhead") max_overhead = std::atof(argv[i + 1]);
  }
  bench::print_system_config(
      "bench_load: workload engine throughput, checker off vs shared");

  bench::JsonResult json("load");
  json.add("threads", uint64_t{threads});
  json.add("ops_per_thread", ops_per_thread);
  json.add("total_ops_per_run", uint64_t{threads} * ops_per_thread);

  bench::Table table({"framework", "off ops/s", "checker ops/s", "overhead",
                      "per-shard ops/s", "shared/per-shard", "races",
                      "tracked words"});
  bool ok = true;
  double worst_overhead = 0;

  for (const std::string& fw : load::framework_names()) {
    load::EngineConfig cfg;
    cfg.framework = fw;
    cfg.spec.threads = threads;
    cfg.spec.ops_per_thread = ops_per_thread;
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
    if (overhead > worst_overhead) worst_overhead = overhead;
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

    // Same schedule, fully executed, clean, in every mode — otherwise the
    // timings are not measuring the same work.
    const uint64_t want = uint64_t{threads} * ops_per_thread;
    for (const load::EngineResult* r : {&on, &per}) {
      const char* mode = r == &on ? "shared" : "per-shard";
      if (!off.ok || !r->ok || off.total_ops != want ||
          r->total_ops != want || off.schedule_hash != r->schedule_hash) {
        std::fprintf(stderr,
                     "bench_load: %s %s run mismatch (ok=%d/%d ops=%llu/%llu)\n",
                     fw.c_str(), mode, int(off.ok), int(r->ok),
                     static_cast<unsigned long long>(off.total_ops),
                     static_cast<unsigned long long>(r->total_ops));
        ok = false;
      }
      if (r->races != 0) {
        std::fprintf(stderr, "bench_load: %s clean workload raced (%s)\n",
                     fw.c_str(), mode);
        ok = false;
      }
    }
    if (overhead > max_overhead) {
      std::fprintf(stderr, "bench_load: %s overhead %.2fx exceeds gate %.2fx\n",
                   fw.c_str(), overhead, max_overhead);
      ok = false;
    }
  }

  table.print();
  json.add("worst_overhead", worst_overhead);
  json.add("max_overhead_gate", max_overhead);
  json.add("pass", ok ? "true" : "false");
  if (!json.write(json_path)) {
    std::fprintf(stderr, "bench_load: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("worst overhead %.2fx (gate %.2fx): %s\n", worst_overhead,
              max_overhead, ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
