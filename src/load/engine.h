// The load engine: N worker threads, each owning one KvShard of the chosen
// framework, replaying its deterministic op stream (workload.h) — the
// high-traffic harness behind `deepmc-load` and `bench_gates load`.
//
// Checker modes:
//   kOff       no instrumentation: the framework-only baseline.
//   kShared    all workers feed ONE RuntimeChecker. Worker pools
//              have colliding offsets, so every worker tags its addresses
//              with a disjoint high-bits address-space id (AddrSpaceScope)
//              before they reach the checker — this is the concurrency/
//              overhead configuration Figure 12-style numbers come from.
//   kPerShard  one checker per worker. Checks, sampling ticks and
//              therefore warning sets are deterministic per (seed, thread):
//              the mode the sampled-subset and determinism tests pin down.
//
// Each op runs inside an ambient strand (StrandScope); seeded bugs
// (shards.h) fire between ops. Crash-at-random-op: worker 0 arms the
// pool's fault injection near the chosen op index, catches PmFault, and
// feeds the crashed pool to the framework's recovery oracle (crash/),
// whose invariant re-binds the shard and verifies every acknowledged
// key-value pair survived (the in-flight op may land pre- or post-state).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "load/workload.h"
#include "obs/metrics.h"
#include "runtime/dynamic_checker.h"

namespace deepmc::load {

enum class CheckerMode : uint8_t { kOff, kShared, kPerShard };

[[nodiscard]] const char* checker_mode_name(CheckerMode mode);

struct EngineConfig {
  std::string framework = "pmdk_mini";
  WorkloadSpec spec;
  CheckerMode checker = CheckerMode::kShared;
  rt::RtOptions rt_opts;     ///< checker event sampling
  bool seed_bugs = false;    ///< arm the deterministic deep-bug injectors
  int64_t crash_at = -1;     ///< worker 0 crashes near this op index (-1: off)
  bool crash_random = false; ///< pick crash_at from the seed instead
  uint64_t pool_bytes = 8ull << 20;  ///< per-worker pool size
  /// Time every op into per-worker put/get/del histograms (two clock
  /// reads per op; off by default so baseline throughput is untouched).
  /// Results land in EngineResult::latency and, when obs is enabled, the
  /// volatile "load.latency.<op>" registry histograms.
  bool measure_latency = false;
};

/// Fixed nanosecond buckets for the per-op latency histograms: 250ns ..
/// 1ms in doubling steps (shard ops are in-memory; checker modes shift
/// the distribution, not its scale).
[[nodiscard]] std::vector<uint64_t> latency_buckets_ns();

struct EngineResult {
  std::string framework;
  uint64_t total_ops = 0;  ///< ops executed to completion, all workers
  uint64_t gets = 0, puts = 0, dels = 0;
  double seconds = 0;      ///< wall clock over the op loop (shards prebuilt)
  double ops_per_sec = 0;
  uint64_t schedule_hash = 0;  ///< workload fingerprint (0 in duration mode)

  // --- checker findings (all modes but kOff) -----------------------------
  uint64_t races = 0, epoch_mismatches = 0;
  uint64_t redundant_flushes = 0, barrier_violations = 0;
  /// Canonical sorted-unique warning identities ("s<worker>|waw:<addr>",
  /// "epoch:<base>:<loc>", ...); the sampled-subset tests compare these
  /// across sample periods in kPerShard mode.
  std::vector<std::string> warning_keys;
  uint64_t strands = 0, fences = 0, tracked_words = 0;

  // --- per-op-type latency (EngineConfig::measure_latency) ---------------
  /// Indexed by OpKind (kGet/kPut/kDel); bounds = latency_buckets_ns().
  /// Empty (count == 0, no bounds) when measurement was off.
  std::array<obs::HistogramValue, 3> latency;
  bool latency_measured = false;

  // --- crash-recovery cycles ---------------------------------------------
  uint64_t crashes = 0;
  uint64_t recoveries_consistent = 0;
  uint64_t verify_failures = 0;  ///< acknowledged KV state mismatches

  std::string fault_tripped;  ///< DEEPMC_FAULTPOINT name, if one fired
  bool ok = true;  ///< no verify failure, no inconsistent recovery, no fault
};

/// Run one workload. Throws std::invalid_argument on a bad config;
/// fault-point trips are reported in EngineResult::fault_tripped, not
/// thrown (workers quiesce cleanly first).
[[nodiscard]] EngineResult run_load(const EngineConfig& cfg);

}  // namespace deepmc::load
