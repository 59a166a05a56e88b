#include "serve/service.h"

#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "serve/fingerprint.h"
#include "serve/wire.h"
#include "support/faultpoint.h"

namespace deepmc::serve {

namespace {

// Lazily registered so a binary that never serves keeps the default
// metrics exposition (and its goldens) unchanged.
obs::Counter& requests_total() {
  static obs::Counter c = obs::registry().counter(
      "serve.requests_total", obs::Volatility::kStable,
      "analysis requests served");
  return c;
}
obs::Counter& unit_hits_total() {
  static obs::Counter c = obs::registry().counter(
      "serve.cache.unit_hits_total", obs::Volatility::kVolatile,
      "whole-unit cache hits (report replayed without analysis)");
  return c;
}
obs::Counter& unit_misses_total() {
  static obs::Counter c = obs::registry().counter(
      "serve.cache.unit_misses_total", obs::Volatility::kVolatile,
      "whole-unit cache misses");
  return c;
}
obs::Counter& root_hits_total() {
  static obs::Counter c = obs::registry().counter(
      "serve.cache.root_hits_total", obs::Volatility::kVolatile,
      "per-root cache hits merged by the driver");
  return c;
}
obs::Counter& root_misses_total() {
  static obs::Counter c = obs::registry().counter(
      "serve.cache.root_misses_total", obs::Volatility::kVolatile,
      "per-root cache misses (the dirty cone)");
  return c;
}
obs::Histogram& dirty_cone_hist() {
  static obs::Histogram h = obs::registry().histogram(
      "serve.dirty_cone_roots", obs::Volatility::kVolatile,
      "roots recomputed per planned request",
      {0, 1, 2, 4, 8, 16, 32, 64});
  return h;
}
obs::Histogram& request_us_hist() {
  static obs::Histogram h = obs::registry().histogram(
      "serve.request_us", obs::Volatility::kVolatile,
      "end-to-end analyze request latency", obs::time_buckets_us());
  return h;
}
obs::Counter& deadline_expired_total() {
  static obs::Counter c = obs::registry().counter(
      "serve.deadline_expired_total", obs::Volatility::kVolatile,
      "requests whose wall-clock deadline watchdog fired");
  return c;
}

/// Join two rendered span-arg pairs, either of which may be "" (tracer
/// inactive, or no request id on the wire).
std::string join_args(std::string a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  a += ", ";
  a += b;
  return a;
}

/// Options the wire format cannot represent faithfully disable caching
/// for the whole request (dynamic findings, crashsim blocks, dumps,
/// suggestion text, suppression accounting, and budget-degraded rungs all
/// live outside the encoded payload). Wall-clock deadlines (budgets.wall_ms
/// and the per-request deadline_at) stay cache-safe: the watchdog only
/// cancels, so a unit that *finished* is byte-identical to an unbounded
/// run, and cancelled units are never kOk so never stored —
/// options_fingerprint likewise excludes them.
bool cache_safe(const core::DriverOptions& o) {
  return !o.dynamic_run && !o.crashsim && !o.dump_ir && !o.dump_dsg &&
         !o.dump_traces && !o.suggest && o.suppressions.size() == 0 &&
         !o.budgets.trace_steps && !o.budgets.dsa_steps &&
         !o.budgets.enum_images && !o.budgets.interp_steps;
}

/// The root level of the cache for one request. The driver calls it with
/// the module it parsed and verified, so the keys cover exactly what the
/// checker analyzes. The driver may call from any pool worker, so every
/// DiskCache call runs under the fault scope of the session that built
/// this object: a cache.read / cache.write trip then degrades to a miss or
/// a dropped entry, as it does for the unit entry, and never cancels the
/// unit.
class DiskRootCache final : public core::RootCache {
 public:
  DiskRootCache(DiskCache& cache, std::string options_fp, std::string rid_arg)
      : cache_(cache),
        options_fp_(std::move(options_fp)),
        rid_arg_(std::move(rid_arg)),
        faults_(support::active_fault_scope()) {}
  DiskRootCache(const DiskRootCache&) = delete;
  DiskRootCache& operator=(const DiskRootCache&) = delete;

  std::vector<std::optional<core::CheckResult>> lookup(
      const ir::Module& module, const analysis::CallGraph& callgraph,
      const std::vector<const ir::Function*>& roots) override {
    {
      obs::Span s("serve.plan", "serve", rid_arg_);
      keys_ = plan_module(module, callgraph, roots, options_fp_).keys;
    }
    planned_ = true;
    support::FaultActivation activation(faults_);
    std::vector<std::optional<core::CheckResult>> cached(keys_.size());
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (auto payload = cache_.get(keys_[i])) {
        core::CheckResult result;
        if (decode_check_result(*payload, &result)) {
          cached[i] = std::move(result);
          ++hits_;
          continue;
        }
      }
      ++misses_;
    }
    return cached;
  }

  void store(
      const std::vector<std::optional<core::CheckResult>>& fresh) override {
    support::FaultActivation activation(faults_);
    for (size_t i = 0; i < fresh.size(); ++i)
      if (fresh[i]) cache_.put(keys_[i], encode_check_result(*fresh[i]));
  }

  /// Read after the driver run: whether the driver reached the full rung's
  /// lookup, and how many roots hit and missed there.
  [[nodiscard]] bool planned() const { return planned_; }
  [[nodiscard]] size_t hits() const { return hits_; }
  [[nodiscard]] size_t misses() const { return misses_; }

 private:
  DiskCache& cache_;
  const std::string options_fp_;
  const std::string rid_arg_;
  support::FaultScope* const faults_;
  std::vector<std::string> keys_;
  bool planned_ = false;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

std::string render(const core::Report& report, const RequestOptions& req) {
  return req.format == core::ReportFormat::kJson
             ? report.json(req.include_timing)
             : report.text();
}

}  // namespace

AnalysisService::AnalysisService(ServeOptions opts)
    : opts_(std::move(opts)),
      pool_([&] {
        const size_t jobs = opts_.driver.jobs == 0
                                ? support::ThreadPool::default_concurrency()
                                : opts_.driver.jobs;
        return jobs <= 1 ? 0 : jobs;
      }()),
      cache_(opts_.cache_dir, opts_.cache_version, opts_.cache_limits) {}

ServeResult AnalysisService::analyze_report(const std::string& name,
                                            const std::string& text,
                                            const RequestOptions& req) {
  // Every span and flight event of this request carries its id, so a
  // trace dump or post-mortem can be filtered to one request's lifeline:
  // request -> cache.lookup -> plan -> recompute -> reply.
  const std::string rid_arg =
      req.request_id.empty() ? std::string()
                             : obs::span_arg("req", req.request_id);
  obs::Span span("serve.request", "serve",
                 join_args(obs::span_arg("unit", name), rid_arg));
  const auto t0 = std::chrono::steady_clock::now();
  auto finish = [&](const ServeResult& r) {
    request_us_hist().observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    if (obs::flight().armed()) {
      // One allocation per event: this runs once per request, including
      // the warm-hit fast path the obs-overhead bench gates.
      std::string detail;
      detail.reserve(48 + req.request_id.size() + name.size() +
                     r.cache.size());
      obs::flight_append_kv(detail, "id", req.request_id);
      obs::flight_append_kv(detail, "unit", name);
      obs::flight_append_kv(detail, "cache", r.cache);
      obs::flight_append_kv_num(detail, "exit", r.exit_code);
      obs::flight().record("serve.request", std::move(detail));
    }
  };
  requests_total().inc();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
  }

  core::DriverOptions dopts = opts_.driver;
  if (req.model) dopts.model = *req.model;
  if (req.deadline_ms > 0)
    dopts.deadline_at = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(req.deadline_ms);
  const bool eligible = cache_.enabled() && cache_safe(dopts);
  const std::string options_fp = options_fingerprint(dopts);
  const std::string ukey = unit_key(options_fp, name, text);

  ServeResult res;
  res.cache = eligible ? "cold" : "off";

  // Level 1: whole-unit replay — identical text under identical options
  // skips parse, DSA, and checking entirely.
  if (eligible) {
    std::optional<std::string> payload;
    {
      obs::Span s("serve.cache.lookup", "serve",
                  join_args(obs::span_arg("level", "unit"), rid_arg));
      payload = cache_.get(ukey);
    }
    if (payload) {
      core::UnitReport unit;
      if (decode_unit_report(*payload, &unit)) {
        unit_hits_total().inc();
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.unit_hits;
        }
        std::vector<core::UnitReport> units;
        units.push_back(std::move(unit));
        const core::Report report = core::Report::from_units(std::move(units));
        res.body = render(report, req);
        res.exit_code = report.exit_code();
        res.failed = false;
        res.degraded = false;
        res.warnings = report.total_warnings();
        res.cache = "unit-hit";
        finish(res);
        return res;
      }
    }
    unit_misses_total().inc();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.unit_misses;
  }

  // Level 2: per-root reuse. The driver asks the root cache on the full
  // rung, once it has verified the module and built its call graph.
  DiskRootCache root_cache(cache_, options_fp, rid_arg);
  if (eligible) dopts.root_cache = &root_cache;
  core::AnalysisDriver driver(dopts);
  std::vector<core::AnalysisUnit> units;
  units.push_back(core::make_source_unit(name, text, req.model));
  core::Report report = [&] {
    obs::Span s("serve.recompute", "serve", rid_arg);
    return driver.run(units, pool_);
  }();

  if (root_cache.planned()) {
    root_hits_total().inc(root_cache.hits());
    root_misses_total().inc(root_cache.misses());
    dirty_cone_hist().observe(root_cache.misses());
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.root_hits += root_cache.hits();
      stats_.root_misses += root_cache.misses();
      stats_.last_dirty_roots = root_cache.misses();
    }
    if (root_cache.hits() > 0) res.cache = "warm";
  }

  // The driver stored the unit's fresh root results once it ended ok; the
  // unit entry goes in after them.
  const core::UnitReport& u = report.units().front();
  if (eligible && !u.failed && u.status == core::UnitStatus::kOk) {
    core::UnitReport to_store = u;
    to_store.stats.elapsed_ms = 0;
    cache_.put(ukey, encode_unit_report(to_store));
  }

  res.body = render(report, req);
  res.exit_code = report.exit_code();
  res.failed = report.any_failed();
  res.degraded = report.any_degraded();
  res.warnings = report.total_warnings();
  for (const core::UnitReport& ur : report.units()) {
    const std::string& reason = ur.failed ? ur.fail_reason : ur.degraded.reason;
    if (reason == "budget-exhausted:wall-clock") res.deadline_expired = true;
  }
  if (res.deadline_expired) deadline_expired_total().inc();
  finish(res);
  return res;
}

double AnalysisService::uptime_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

AnalysisService::Stats AnalysisService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string AnalysisService::stats_json() const {
  const Stats s = stats();
  const DiskCache::Stats c = cache_.stats();
  std::ostringstream os;
  os << "{\"requests\": " << s.requests
     << ", \"unit_hits\": " << s.unit_hits
     << ", \"unit_misses\": " << s.unit_misses
     << ", \"root_hits\": " << s.root_hits
     << ", \"root_misses\": " << s.root_misses
     << ", \"last_dirty_roots\": " << s.last_dirty_roots
     << ", \"cache_enabled\": " << (cache_.enabled() ? "true" : "false")
     << ", \"disk_hits\": " << c.hits << ", \"disk_misses\": " << c.misses
     << ", \"disk_corrupt\": " << c.corrupt
     << ", \"read_faults\": " << c.read_faults
     << ", \"write_faults\": " << c.write_faults
     << ", \"write_errors\": " << c.write_errors
     << ", \"evictions\": " << c.evictions
     << ", \"evicted_bytes\": " << c.evicted_bytes
     << ", \"entries\": " << c.entries << ", \"bytes\": " << c.bytes << "}";
  return os.str();
}

}  // namespace deepmc::serve
