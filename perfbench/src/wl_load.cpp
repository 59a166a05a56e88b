// load-checker: the Figure 12 analog. load::run_load over all four mini
// frameworks at min(4, nproc) threads, Zipf 0.99 keys and the default
// 50/40/10 get/put/del mix. Each framework runs twice on the identical
// schedule, checker off then checker shared; rounds repeat until the
// time is up and every figure is the median over rounds.
//
// The traced run adds what the engine's results cannot show: shard build
// time, per-op latency (measure_latency on, in its own runs), and the
// cost of each RuntimeChecker hook called directly at 1 and at
// min(4, nproc) threads.
#include <array>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "load/engine.h"
#include "load/shards.h"
#include "load/workload.h"
#include "runtime/dynamic_checker.h"
#include "spans.h"
#include "support/rng.h"
#include "support/str.h"
#include "workloads.h"

namespace perfbench {

using namespace deepmc;

namespace {

/// Ops per thread for each framework, sized at the seed so each
/// framework's off + shared pair takes about 0.3 s on 4 threads
/// (README.md "Baseline").
struct Framework {
  const char* name;
  uint64_t ops_per_thread;
};
constexpr std::array<Framework, 4> kFrameworks = {{
    {"pmdk_mini", 100000},
    {"mnemosyne_mini", 60000},
    {"pmfs_mini", 30000},
    {"nvmdirect_mini", 120000},
}};
constexpr int kMinRounds = 2;
constexpr uint64_t kHookCalls = 200000;  ///< per hook per thread

load::EngineConfig config_for(const Framework& fw, uint32_t threads,
                              uint64_t seed, load::CheckerMode mode) {
  load::EngineConfig cfg;
  cfg.framework = fw.name;
  cfg.checker = mode;
  cfg.spec.threads = threads;
  cfg.spec.ops_per_thread = fw.ops_per_thread;
  cfg.spec.zipf_s = 0.99;
  cfg.spec.seed = seed;
  return cfg;
}

struct Run {
  load::EngineResult res;
  double wall_s = 0;
  double cpu_s = 0;
};

Run timed_run(const load::EngineConfig& cfg) {
  Run r;
  const ProcUsage u0 = proc_usage();
  const double t0 = now_s();
  {
    Span s("load", "load.run");
    r.res = load::run_load(cfg);
  }
  r.wall_s = now_s() - t0;
  r.cpu_s = (proc_usage() - u0).cpu_s();
  return r;
}

/// Nearest-rank percentile of a bucketed histogram, as the bucket's upper
/// bound (the overflow bucket reads as twice the last bound).
double hist_percentile_ns(const obs::HistogramValue& h, double q) {
  if (h.count == 0) return 0;
  const auto rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(h.count)));
  uint64_t seen = 0;
  for (size_t i = 0; i < h.counts.size() && i < h.bounds.size(); ++i) {
    seen += h.counts[i];
    if (seen >= rank) return static_cast<double>(h.bounds[i]);
  }
  return h.bounds.empty() ? 0 : 2.0 * static_cast<double>(h.bounds.back());
}

void merge_into(obs::HistogramValue& into, const obs::HistogramValue& h) {
  if (into.bounds.empty()) {
    into = h;
    return;
  }
  for (size_t i = 0; i < into.counts.size() && i < h.counts.size(); ++i)
    into.counts[i] += h.counts[i];
  into.overflow += h.overflow;
  into.sum += h.sum;
  into.count += h.count;
}

/// ns per call of each RuntimeChecker hook, every thread of `threads`
/// driving its own address space of one shared checker.
std::array<double, 5> hook_costs_ns(uint32_t threads) {
  rt::RuntimeChecker checker(core::PersistencyModel::kStrand, rt::RtOptions{});
  std::vector<std::array<double, 5>> per(threads);
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < threads; ++t)
    workers.emplace_back([&, t] {
      rt::AddrSpaceScope space(static_cast<uint64_t>(t + 1) << 44);
      const SourceLoc loc{"hooks.c", 1};
      auto time_ns = [](auto&& body) {
        const int64_t t0 = Tracer::now_ns();
        for (uint64_t i = 0; i < kHookCalls; ++i) body(i);
        return static_cast<double>(Tracer::now_ns() - t0) / kHookCalls;
      };
      const rt::StrandId s = checker.strand_begin();
      per[t][0] = time_ns([&](uint64_t i) {
        checker.on_write(s, 64 + 8 * (i % 1024), 8, loc);
      });
      per[t][1] = time_ns([&](uint64_t i) {
        checker.on_read(s, 64 + 8 * (i % 1024), 8, loc);
      });
      per[t][2] = time_ns([&](uint64_t i) {
        checker.on_flush(s, 64 + 8 * (i % 1024), 8);
      });
      checker.strand_end(s);
      per[t][3] = time_ns([&](uint64_t) { checker.on_fence(0); });
      per[t][4] = time_ns([&](uint64_t) {
        checker.strand_end(checker.strand_begin());
      });
    });
  for (std::thread& w : workers) w.join();
  checker.drain();
  std::array<double, 5> mean{};
  for (const auto& p : per)
    for (size_t k = 0; k < mean.size(); ++k) mean[k] += p[k] / threads;
  return mean;
}

}  // namespace

void run_load_checker(const Config& cfg, Result& out) {
  const auto threads = static_cast<uint32_t>(std::min(4u, cfg.nproc));
  const uint64_t seed = Rng(cfg.seed).next() >> 1;

  // The schedules, fingerprinted before anything runs.
  std::array<uint64_t, kFrameworks.size()> expect_hash{};
  for (size_t f = 0; f < kFrameworks.size(); ++f) {
    const load::EngineConfig c =
        config_for(kFrameworks[f], threads, seed, load::CheckerMode::kOff);
    expect_hash[f] = load::schedule_hash(c.spec);
    out.fingerprint(std::string("schedule_hash ") + kFrameworks[f].name,
                    strformat("%016llx", static_cast<unsigned long long>(
                                             expect_hash[f])));
  }

  auto check = [&](const Run& r, const load::EngineConfig& c, size_t f,
                   const char* mode) {
    const std::string what = std::string(c.framework) + " " + mode;
    out.attempt(r.res.total_ops + 1);
    if (r.res.verify_failures != 0) {
      for (uint64_t i = 0; i < r.res.verify_failures; ++i)
        out.fail(what + ": a get returned a value the model does not hold");
    }
    const uint64_t want = static_cast<uint64_t>(threads) * c.spec.ops_per_thread;
    if (!r.res.ok) out.fail(what + ": run not ok");
    else if (r.res.total_ops != want)
      out.fail(what + ": " + std::to_string(r.res.total_ops) + " ops, schedule has " +
               std::to_string(want));
    else if (r.res.schedule_hash != expect_hash[f])
      out.fail(what + ": schedule_hash differs from the schedule");
    else if (r.res.races != 0)
      out.fail(what + ": " + std::to_string(r.res.races) +
               " race(s) on the clean schedule");
  };

  if (cfg.trace) Tracer::set_enabled(true);
  std::vector<double> checker_rate, framework_rate, overhead, cpu_us, setup_s,
      sys_s, faults;
  std::array<std::vector<double>, kFrameworks.size()> fw_off, fw_shared, fw_share;
  std::array<load::EngineResult, kFrameworks.size()> first_shared;
  double runtime_s = 0;  // traced: checker-on minus checker-off loop time
  const double start = now_s();
  for (int round = 0; round < kMinRounds || now_s() - start < cfg.seconds;
       ++round) {
    Span round_span("bench", "round");
    const ProcUsage u0 = proc_usage();
    double off_ops = 0, off_s = 0, on_ops = 0, on_s = 0, cpu = 0, setup = 0;
    std::vector<double> ratios;
    for (size_t f = 0; f < kFrameworks.size(); ++f) {
      const load::EngineConfig c_off =
          config_for(kFrameworks[f], threads, seed, load::CheckerMode::kOff);
      const load::EngineConfig c_on =
          config_for(kFrameworks[f], threads, seed, load::CheckerMode::kShared);
      const Run off = timed_run(c_off);
      const Run on = timed_run(c_on);
      check(off, c_off, f, "checker off");
      check(on, c_on, f, "checker shared");
      if (off.res.schedule_hash != on.res.schedule_hash)
        out.fail(std::string(kFrameworks[f].name) +
                 ": off and shared runs ran different schedules");
      off_ops += static_cast<double>(off.res.total_ops);
      off_s += off.res.seconds;
      on_ops += static_cast<double>(on.res.total_ops);
      on_s += on.res.seconds;
      cpu += on.cpu_s;
      setup += (off.wall_s - off.res.seconds) + (on.wall_s - on.res.seconds);
      ratios.push_back(off.res.ops_per_sec / on.res.ops_per_sec);
      fw_off[f].push_back(off.res.ops_per_sec);
      fw_shared[f].push_back(on.res.ops_per_sec);
      fw_share[f].push_back(1.0 - off.res.seconds / on.res.seconds);
      runtime_s += on.res.seconds - off.res.seconds;
      if (round == 0) first_shared[f] = on.res;
    }
    checker_rate.push_back(on_ops / on_s);
    framework_rate.push_back(off_ops / off_s);
    overhead.push_back(geomean(ratios));
    cpu_us.push_back(cpu * 1e6 / on_ops);
    setup_s.push_back(setup);
    const ProcUsage du = proc_usage() - u0;
    sys_s.push_back(du.sys_s);
    faults.push_back(du.minor_faults);
  }
  Tracer::set_enabled(false);
  out.note(strformat("%zu rounds at %u threads; checker ops/s min %.0f "
                     "median %.0f max %.0f",
                     checker_rate.size(), threads, percentile(checker_rate, 0),
                     median(checker_rate), percentile(checker_rate, 1)));

  out.metric("throughput_per_s", median(checker_rate), "1/s");
  out.metric("checker_ops_per_s", median(checker_rate), "ops/s");
  out.metric("framework_ops_per_s", median(framework_rate), "ops/s");
  out.metric("checker_overhead_x", median(overhead), "ratio");
  out.metric("proc.cpu_us_per_op", median(cpu_us), "us");
  out.metric("setup_s", median(setup_s), "s");
  out.metric("proc.sys_s", median(sys_s), "s");
  out.metric("proc.minor_faults", median(faults), "count");
  for (size_t f = 0; f < kFrameworks.size(); ++f) {
    const std::string fw = kFrameworks[f].name;
    out.metric("load." + fw + ".off_ops_per_s", median(fw_off[f]), "ops/s");
    out.metric("load." + fw + ".checker_ops_per_s", median(fw_shared[f]), "ops/s");
    out.metric("runtime." + fw + ".checker_share", median(fw_share[f]), "ratio");
  }
  if (!cfg.trace) return;

  uint64_t strands = 0, fences = 0, words = 0, races = 0;
  for (const load::EngineResult& r : first_shared) {
    strands += r.strands;
    fences += r.fences;
    words += r.tracked_words;
    races += r.races;
  }
  out.metric("runtime.strands", static_cast<double>(strands), "count");
  out.metric("runtime.fences", static_cast<double>(fences), "count");
  out.metric("runtime.tracked_words", static_cast<double>(words), "count");
  out.metric("runtime.races", static_cast<double>(races), "count");

  // Self times: the engine runs as one call, so the checker's part of
  // each checker-shared run is its extra loop time over the off run.
  const std::vector<SpanRec> spans = Tracer::take();
  emit_self_times(out, spans);
  const double load_ms = static_cast<double>(layer_self_ns(spans)["load"]) / 1e6;
  out.metric("self.runtime_ms", runtime_s * 1e3, "ms");
  out.metric("self.load_ms", load_ms - runtime_s * 1e3, "ms");

  // Shard build: every worker's shard of every framework, built directly.
  {
    const double t0 = now_s();
    for (const Framework& fw : kFrameworks) {
      load::ShardConfig sc;
      for (uint32_t t = 0; t < threads; ++t) (void)load::make_shard(fw.name, sc);
    }
    out.metric("load.shard_build_s", now_s() - t0, "s");
  }

  // Per-op latency, in runs of their own with measure_latency on.
  obs::HistogramValue get_h, put_h;
  for (size_t f = 0; f < kFrameworks.size(); ++f) {
    load::EngineConfig c =
        config_for(kFrameworks[f], threads, seed, load::CheckerMode::kShared);
    c.spec.ops_per_thread /= 4;
    c.measure_latency = true;
    const load::EngineResult r = load::run_load(c);
    out.attempt();
    if (!r.ok || !r.latency_measured) out.fail(c.framework + ": latency run not ok");
    merge_into(get_h, r.latency[static_cast<size_t>(load::OpKind::kGet)]);
    merge_into(put_h, r.latency[static_cast<size_t>(load::OpKind::kPut)]);
  }
  out.metric("load.get_p99_us", hist_percentile_ns(get_h, 0.99) / 1e3, "us");
  out.metric("load.put_p99_us", hist_percentile_ns(put_h, 0.99) / 1e3, "us");

  // RuntimeChecker hooks called directly with the engine's RtOptions.
  static const std::array<const char*, 5> kHooks = {
      "on_write", "on_read", "on_flush", "on_fence", "strand"};
  const std::array<double, 5> one = hook_costs_ns(1);
  const std::array<double, 5> many = hook_costs_ns(threads);
  for (size_t k = 0; k < kHooks.size(); ++k) {
    out.metric(std::string("runtime.") + kHooks[k] + "_ns.t1", one[k], "ns");
    out.metric(std::string("runtime.") + kHooks[k] + "_ns.tmax", many[k], "ns");
  }
}

}  // namespace perfbench
