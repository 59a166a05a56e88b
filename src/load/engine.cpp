#include "load/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "crash/recovery_oracle.h"
#include "load/shards.h"
#include "obs/flight.h"
#include "support/faultpoint.h"

namespace deepmc::load {

namespace {

using Clock = std::chrono::steady_clock;

std::string hex(uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

/// Canonical warning identities from one checker. `prefix` disambiguates
/// per-worker checkers (their pools have colliding offsets).
void collect_keys(const rt::RuntimeChecker& rt, const std::string& prefix,
                  std::vector<std::string>& out) {
  for (const rt::RaceReport& r : rt.races())
    out.push_back(prefix + (r.kind == rt::RaceKind::kWaw ? "waw:" : "raw:") +
                  hex(r.addr));
  for (const rt::EpochMismatchReport& e : rt.epoch_mismatches())
    out.push_back(prefix + "epoch:" + hex(e.object_base) + ":" +
                  e.second_loc.str());
  for (const rt::RuntimeFlushReport& f : rt.redundant_flushes())
    out.push_back(prefix + "flush:" + f.loc.str() + ":" + hex(f.addr));
  for (const rt::RuntimeBarrierReport& b : rt.barrier_violations())
    out.push_back(prefix + "unfenced:" + b.loc.str());
}

void fold_checker(const rt::RuntimeChecker& rt, const std::string& prefix,
                  EngineResult& res) {
  res.races += rt.races().size();
  res.epoch_mismatches += rt.epoch_mismatches().size();
  res.redundant_flushes += rt.redundant_flushes().size();
  res.barrier_violations += rt.barrier_violations().size();
  const rt::RuntimeStats s = rt.stats();
  res.strands += s.strands_opened;
  res.fences += s.fences;
  res.tracked_words += rt.tracked_words();
  collect_keys(rt, prefix, res.warning_keys);
}

struct WorkerOut {
  uint64_t gets = 0, puts = 0, dels = 0;
  uint64_t crashes = 0, recoveries_consistent = 0, verify_failures = 0;
  /// Per-op-kind latency, accumulated locally (no atomics on the op
  /// path); folded into EngineResult::latency after the join.
  std::array<obs::HistogramValue, 3> lat;
  std::string fault_tripped;
  std::string error;
};

obs::HistogramValue fresh_hist() {
  obs::HistogramValue h;
  h.bounds = latency_buckets_ns();
  h.counts.assign(h.bounds.size(), 0);
  return h;
}

void observe_local(obs::HistogramValue& h, uint64_t ns) {
  size_t i = 0;
  while (i < h.bounds.size() && ns > h.bounds[i]) ++i;
  if (i < h.bounds.size())
    ++h.counts[i];
  else
    ++h.overflow;
  h.sum += ns;
  ++h.count;
}

void merge_hist(obs::HistogramValue& dst, const obs::HistogramValue& src) {
  if (dst.bounds.empty()) dst = fresh_hist();
  for (size_t i = 0; i < src.counts.size() && i < dst.counts.size(); ++i)
    dst.counts[i] += src.counts[i];
  dst.overflow += src.overflow;
  dst.sum += src.sum;
  dst.count += src.count;
}

struct Worker {
  const EngineConfig* cfg = nullptr;
  uint32_t index = 0;
  rt::RuntimeChecker* rt = nullptr;  ///< nullptr in kOff mode
  support::FaultScope* faults = nullptr;
  std::latch* ready = nullptr;
  std::latch* start = nullptr;
  std::atomic<bool>* stop = nullptr;
  WorkerOut out;

  void run();

 private:
  void crash_recover(KvShard& shard, std::vector<uint64_t>& model,
                     const LoadOp& op, bool committed);
};

void Worker::run() {
  support::FaultActivation activation(faults);
  const WorkloadSpec& spec = cfg->spec;
  // Shared mode: every worker gets a disjoint address-space tag so one
  // checker can tell the per-worker pools apart.
  std::optional<rt::AddrSpaceScope> tag;
  if (cfg->checker == CheckerMode::kShared)
    tag.emplace(static_cast<uint64_t>(index + 1) << 44);

  std::unique_ptr<KvShard> shard;
  try {
    ShardConfig scfg;
    scfg.keys = spec.keys;
    scfg.rt = rt;
    scfg.seed_bugs = cfg->seed_bugs;
    scfg.pool_bytes = cfg->pool_bytes;
    shard = make_shard(cfg->framework, scfg);
  } catch (const std::exception& e) {
    out.error = std::string("shard init: ") + e.what();
  }
  ready->count_down();
  start->wait();
  if (!shard) return;

  // Acknowledged state: what a correct shard must serve after any crash.
  std::vector<uint64_t> model(shard->capacity(), 0);
  Rng rng = thread_rng(spec, index);
  // Built once per worker (read-only afterwards); inactive when zipf is
  // off, so the hot-set default pays nothing.
  const ZipfDist zipf = ZipfDist::for_spec(spec);
  // Crash plan (worker 0 only): arm the pool's fault injection just before
  // the chosen op; the fault lands at a seed-chosen persistence event soon
  // after, possibly a few ops later if the op turns out to be read-only.
  int64_t crash_at = -1;
  Rng crash_rng(spec.seed ^ 0x5bd1e995c7a5a5a5ull);
  if (index == 0) {
    if (cfg->crash_random && spec.ops_per_thread > 0)
      crash_at = static_cast<int64_t>(crash_rng.below(spec.ops_per_thread));
    else
      crash_at = cfg->crash_at;
  }

  const bool measure = cfg->measure_latency;
  if (measure)
    for (obs::HistogramValue& h : out.lat) h = fresh_hist();

  const uint64_t ops =
      spec.duration_s > 0 ? UINT64_MAX : spec.ops_per_thread;
  try {
    for (uint64_t i = 0; i < ops; ++i) {
      if (stop->load(std::memory_order_relaxed)) break;
      const LoadOp op = next_op(rng, spec, zipf);
      const uint64_t slot = shard->slot_of(op.key);
      if (crash_at >= 0 && i == static_cast<uint64_t>(crash_at))
        shard->pool().inject_fault_after(1 + crash_rng.below(6));
      DEEPMC_FAULTPOINT("load.op");
      bool committed = false;
      try {
        const Clock::time_point op_t0 =
            measure ? Clock::now() : Clock::time_point();
        {
          rt::StrandScope strand(rt);
          switch (op.kind) {
            case OpKind::kGet: {
              const uint64_t v = shard->get(slot);
              if (v != model[slot]) ++out.verify_failures;
              ++out.gets;
              break;
            }
            case OpKind::kPut:
              shard->put(slot, op.value);
              model[slot] = op.value;
              ++out.puts;
              break;
            case OpKind::kDel:
              shard->del(slot);
              model[slot] = 0;
              ++out.dels;
              break;
          }
        }
        if (measure)
          observe_local(
              out.lat[static_cast<size_t>(op.kind)],
              static_cast<uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - op_t0)
                      .count()));
        committed = true;
        shard->maybe_seed_bug(i);
      } catch (const pmem::PmFault&) {
        crash_recover(*shard, model, op, committed);
      }
      // Inter-op persist barrier: op i's strand ended before it, op i+1's
      // strand is born after it, so consecutive same-slot updates are
      // ordered and only genuinely concurrent strands (the seeded bugs)
      // can race.
      if (rt != nullptr) rt->on_fence(0);
    }
    shard->pool().inject_fault_after(0);  // disarm a never-tripped plan
  } catch (const support::FaultInjected& e) {
    out.fault_tripped = e.point();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
}

void Worker::crash_recover(KvShard& shard, std::vector<uint64_t>& model,
                           const LoadOp& op, bool committed) {
  DEEPMC_FAULTPOINT("load.crash");
  shard.pool().crash();
  const std::unique_ptr<crash::RecoveryOracle> oracle =
      crash::make_oracle(cfg->framework);
  if (!oracle) throw std::runtime_error("no recovery oracle for framework");

  const uint64_t slot = shard.slot_of(op.key);
  bool state_ok = true;
  bool invariant_ran = false;
  // Empty image: the pool already holds exactly what survived the crash;
  // classify() replays the framework's recovery entry on it, then the
  // invariant re-binds our handle and audits the acknowledged state.
  const crash::RecoveryOutcome outcome = oracle->classify(
      shard.pool(), crash::CrashImage{}, [&](pmem::PmPool&) {
        invariant_ran = true;
        shard.recover();
        for (uint64_t s = 0; s < shard.capacity(); ++s) {
          const uint64_t v = shard.get(s);
          bool allowed = v == model[s];
          if (!allowed && !committed && s == slot) {
            // The in-flight op may have persisted or not: both states are
            // acceptable, anything else is a lost/torn update.
            if (op.kind == OpKind::kPut) allowed = v == op.value;
            if (op.kind == OpKind::kDel) allowed = v == 0;
          }
          if (!allowed) {
            state_ok = false;
            return false;
          }
        }
        return true;
      });

  ++out.crashes;
  if (outcome == crash::RecoveryOutcome::kConsistent)
    ++out.recoveries_consistent;
  if (!state_ok) ++out.verify_failures;
  obs::flight().record(
      "crash.cycle",
      obs::flight_join(
          {obs::flight_kv("framework", cfg->framework),
           obs::flight_kv("outcome",
                          outcome == crash::RecoveryOutcome::kConsistent
                              ? "consistent"
                              : "inconsistent"),
           obs::flight_kv("state", state_ok ? "verified" : "mismatch")}));
  if (!invariant_ran) shard.recover();  // classify failed earlier: re-bind
  // Adopt whatever the in-flight slot actually recovered to.
  model[slot] = shard.get(slot);
}

}  // namespace

const char* checker_mode_name(CheckerMode mode) {
  switch (mode) {
    case CheckerMode::kOff: return "off";
    case CheckerMode::kShared: return "shared";
    case CheckerMode::kPerShard: return "per-shard";
  }
  return "?";
}

EngineResult run_load(const EngineConfig& cfg) {
  const WorkloadSpec& spec = cfg.spec;
  if (spec.threads == 0)
    throw std::invalid_argument("load: threads must be >= 1");
  if (!spec.mix.valid())
    throw std::invalid_argument("load: op mix must sum to 100");
  if (spec.ops_per_thread == 0 && spec.duration_s <= 0)
    throw std::invalid_argument("load: need an op count or a duration");
  if (framework_names().end() == std::find(framework_names().begin(),
                                           framework_names().end(),
                                           cfg.framework))
    throw std::invalid_argument("load: unknown framework '" + cfg.framework +
                                "'");

  // One checker shared by everyone, or one per worker (see engine.h).
  std::optional<rt::RuntimeChecker> shared_rt;
  std::vector<std::unique_ptr<rt::RuntimeChecker>> shard_rts;
  if (cfg.checker == CheckerMode::kShared)
    shared_rt.emplace(core::PersistencyModel::kStrand, cfg.rt_opts);
  else if (cfg.checker == CheckerMode::kPerShard)
    for (uint32_t t = 0; t < spec.threads; ++t)
      shard_rts.push_back(std::make_unique<rt::RuntimeChecker>(
          core::PersistencyModel::kStrand, cfg.rt_opts));

  support::FaultScope faults;
  std::latch ready(spec.threads);
  std::latch start(1);
  std::atomic<bool> stop{false};

  std::vector<Worker> workers(spec.threads);
  for (uint32_t t = 0; t < spec.threads; ++t) {
    Worker& w = workers[t];
    w.cfg = &cfg;
    w.index = t;
    w.rt = cfg.checker == CheckerMode::kShared ? &*shared_rt
           : cfg.checker == CheckerMode::kPerShard ? shard_rts[t].get()
                                                   : nullptr;
    w.faults = &faults;
    w.ready = &ready;
    w.start = &start;
    w.stop = &stop;
  }

  std::vector<std::thread> threads;
  threads.reserve(spec.threads);
  for (uint32_t t = 0; t < spec.threads; ++t)
    threads.emplace_back([&workers, t] { workers[t].run(); });

  ready.wait();  // all shards built: time only the op loop
  const Clock::time_point t0 = Clock::now();
  start.count_down();
  if (spec.duration_s > 0) {
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(spec.duration_s));
    while (Clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.store(true, std::memory_order_relaxed);
  }
  for (std::thread& th : threads) th.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();

  EngineResult res;
  res.framework = cfg.framework;
  res.seconds = seconds;
  if (spec.duration_s <= 0) res.schedule_hash = schedule_hash(spec);

  res.latency_measured = cfg.measure_latency;

  std::string first_error;
  for (const Worker& w : workers) {
    res.gets += w.out.gets;
    res.puts += w.out.puts;
    res.dels += w.out.dels;
    if (cfg.measure_latency)
      for (size_t k = 0; k < res.latency.size(); ++k)
        merge_hist(res.latency[k], w.out.lat[k]);
    res.crashes += w.out.crashes;
    res.recoveries_consistent += w.out.recoveries_consistent;
    res.verify_failures += w.out.verify_failures;
    if (!w.out.fault_tripped.empty() && res.fault_tripped.empty())
      res.fault_tripped = w.out.fault_tripped;
    if (!w.out.error.empty() && first_error.empty()) first_error = w.out.error;
  }
  if (!first_error.empty())
    throw std::runtime_error("load worker failed: " + first_error);

  res.total_ops = res.gets + res.puts + res.dels;
  res.ops_per_sec = seconds > 0 ? static_cast<double>(res.total_ops) / seconds
                                : 0.0;

  if (shared_rt) {
    fold_checker(*shared_rt, "", res);
    shared_rt->publish_obs();
  }
  for (uint32_t t = 0; t < shard_rts.size(); ++t) {
    std::string prefix = "s";
    prefix += std::to_string(t);
    prefix += '|';
    fold_checker(*shard_rts[t], prefix, res);
  }
  std::sort(res.warning_keys.begin(), res.warning_keys.end());
  res.warning_keys.erase(
      std::unique(res.warning_keys.begin(), res.warning_keys.end()),
      res.warning_keys.end());

  // Surface the folded latency through the obs registry too, so a
  // metrics snapshot (or a scraping daemon) sees the same distributions
  // --latency-json prints. Volatile: latency is wall-clock data.
  if (cfg.measure_latency && obs::enabled()) {
    static const std::array<const char*, 3> kNames = {
        "load.latency.get", "load.latency.put", "load.latency.del"};
    for (size_t k = 0; k < kNames.size(); ++k) {
      obs::Histogram h = obs::registry().histogram(
          kNames[k], obs::Volatility::kVolatile,
          std::string("op latency ns (") + op_name(static_cast<OpKind>(k)) +
              ")",
          latency_buckets_ns());
      h.add(res.latency[k]);
    }
  }

  res.ok = res.verify_failures == 0 &&
           res.recoveries_consistent == res.crashes &&
           res.fault_tripped.empty();
  return res;
}

std::vector<uint64_t> latency_buckets_ns() {
  return {250,    500,    1000,   2000,   4000,    8000,
          16000,  32000,  64000,  128000, 256000,  1000000};
}

}  // namespace deepmc::load
