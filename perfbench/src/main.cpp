// perfbench: the deepmc repository benchmark.
//
//   perfbench --workload gen-crashsim|serve-edits|load-checker
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints readable "input", "metric", "FAIL" lines, then one JSON object
// with every metric the run measured as the last line of stdout. Exits 1
// when any output was wrong or the run was invalid, 2 on bad usage.
// perfbench/run.py builds this binary and selects the declared metrics.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "report.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload gen-crashsim|serve-edits|"
               "load-checker --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin the allocator's behaviour for large blocks. By default glibc
  // moves its mmap threshold and trims heaps as blocks come and go, so
  // whether each crash-simulation pool (two 4 MiB vectors) reuses warm
  // heap memory or page-faults fresh memory flips between runs of one
  // seed: gen-crashsim read anywhere from ~1k to ~4k programs/s
  // (README.md "Baseline"). Fixed thresholds keep large blocks on the
  // heap and the heap untrimmed, so every run measures the same regime;
  // proc.minor_faults shows which one that is.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  perfbench::Config cfg;
  std::string workload;
  cfg.work_dir = ".bench_run";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") cfg.seconds = std::atof(value.c_str());
    else if (flag == "--trace") cfg.trace = value == "1";
    else if (flag == "--work-dir") cfg.work_dir = value;
    else return usage();
  }
  if (argc % 2 != 1 || workload.empty() || !(cfg.seconds > 0)) return usage();
  cfg.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::filesystem::create_directories(cfg.work_dir);

  perfbench::Result out(workload);
  try {
    if (workload == "gen-crashsim") perfbench::run_gen_crashsim(cfg, out);
    else if (workload == "serve-edits") perfbench::run_serve_edits(cfg, out);
    else if (workload == "load-checker") perfbench::run_load_checker(cfg, out);
    else return usage();
  } catch (const std::exception& e) {
    out.attempt();
    out.fail(std::string("benchmark error: ") + e.what());
  }
  out.metric("peak_rss_mb", perfbench::peak_rss_mib(), "MiB");
  out.print();
  return out.correct() ? 0 : 1;
}
