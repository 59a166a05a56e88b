// The analysis service behind `deepmc serve`: one long-lived object that
// owns the warm thread pool and the on-disk cache, shared by every
// request on every connection.
//
// Byte-identity contract: a response body is identical to what a fresh
// one-shot `deepmc` run over the same input and options prints (modulo
// elapsed_ms, which the server omits by default). Cached unit replays go
// through Report::from_units into the exact print paths a fresh run
// uses. Per-root results reach the driver through core::RootCache: it
// keys them on the module, call graph and trace roots the driver built,
// and merges each in trace_roots() order, exactly where a fresh
// check_root result would be. One parse per request, by the driver.
//
// Cache safety: results are only cached and replayed for configurations
// that options_fingerprint (fingerprint.h) gives a fingerprint: static
// analysis without dynamic/crashsim stages, dumps, suggestions,
// suppressions or step budgets. Anything else runs fresh every time ("off"
// outcome), and the fingerprint starts every cache key.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "core/analysis_driver.h"
#include "serve/cache.h"
#include "support/thread_pool.h"

namespace deepmc::serve {

struct ServeOptions {
  core::DriverOptions driver;
  std::string cache_dir;  ///< empty = caching off (every request "off")
  DiskCache::Limits cache_limits;  ///< LRU bounds; 0 = unbounded
};

/// Per-request knobs (the analyze header fields, docs/SERVER.md).
struct RequestOptions {
  std::optional<core::PersistencyModel> model;  ///< override driver model
  core::ReportFormat format = core::ReportFormat::kJson;
  bool include_timing = false;
  /// Request id tagging every span and flight event this request emits
  /// (the header "id" field; the server assigns "req-N" when absent).
  /// Telemetry-only: the response body never depends on it.
  std::string request_id;
  /// Wall-clock deadline for this one request (0 = none): armed as an
  /// absolute DriverOptions::deadline_at so the whole degradation ladder
  /// shares one bound. Expiry degrades/fails *this* request exactly like
  /// a one-shot run under --budget-wall-ms; the daemon is untouched.
  uint64_t deadline_ms = 0;
};

struct ServeResult {
  std::string body;      ///< rendered report (text or JSON)
  int exit_code = 0;     ///< same scheme as the one-shot CLI
  bool failed = false;
  bool degraded = false;
  uint64_t warnings = 0;
  std::string cache;     ///< "unit-hit" | "warm" | "cold" | "off"
  /// The request's deadline watchdog fired (a unit degraded or failed
  /// with reason "budget-exhausted:wall-clock").
  bool deadline_expired = false;
};

class AnalysisService {
 public:
  explicit AnalysisService(ServeOptions opts);

  /// Analyze one named MIR text and render the response.
  ServeResult analyze_report(const std::string& name, const std::string& text,
                             const RequestOptions& req);

  struct Stats {
    uint64_t requests = 0;
    uint64_t unit_hits = 0;
    uint64_t unit_misses = 0;
    uint64_t root_hits = 0;
    uint64_t root_misses = 0;
    uint64_t last_dirty_roots = 0;  ///< dirty-cone size of the last plan
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] DiskCache::Stats cache_stats() const { return cache_.stats(); }
  /// Flat JSON object for the `stats` op and `--cache-stats`.
  [[nodiscard]] std::string stats_json() const;

  [[nodiscard]] const ServeOptions& options() const { return opts_; }

  /// Milliseconds since construction — the wall_ms of a `metrics`
  /// snapshot taken from a live daemon (volatile section only).
  [[nodiscard]] double uptime_ms() const;

 private:
  ServeOptions opts_;
  support::ThreadPool pool_;
  DiskCache cache_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  Stats stats_;
};

}  // namespace deepmc::serve
