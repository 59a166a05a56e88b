// Observability metrics registry (counters, gauges, fixed-bucket
// histograms) shared by every layer of the analysis pipeline.
//
// Design goals, in order:
//
//  1. Zero interference with analysis output. Metrics are a pure side
//     channel: nothing here writes to stdout, and with observability off
//     (the default) every hook reduces to one relaxed atomic load.
//  2. Lock-cheap recording. The registry keeps every metric cell in one
//     store of kShards fixed-size shards of atomic cells, picked by the
//     same shard_of(thread_tid()) rule as the event recorders (flight.h).
//     A shard is made on its first record and kept for the process.
//     inc()/observe() are a relaxed fetch_add into the caller's shard, so
//     threads on different shards share no cacheline; a gauge is one
//     cell that only shard 0 holds, last write wins. snapshot() sums each
//     cell over the shards that exist, sorted by metric name, so the
//     exposition order never depends on registration or scheduling order.
//  3. Deterministic exposition. Every metric declares a Volatility:
//     kStable values are pure functions of the analyzed inputs (identical
//     across runs and across --jobs values), kVolatile values depend on
//     scheduling or wall clock. Snapshot::to_json() groups them into
//     separate "stable" / "volatile" sections so consumers (goldens,
//     scripts/check.sh) can strip the volatile section and byte-compare
//     the rest.
//
// Handles (Counter/Gauge/Histogram) are tiny value types; the idiomatic
// use is a function-local static:
//
//   static obs::Counter c = obs::registry().counter(
//       "driver.units_total", obs::Volatility::kStable, "units analyzed");
//   c.inc();
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace deepmc::obs {

/// Global observability switch. Off by default: recording hooks are
/// no-ops (one relaxed atomic load) and analysis behavior is unchanged.
bool enabled();
void set_enabled(bool on);

/// Stable identity of the calling thread for spans and per-worker
/// metrics. Thread 0 is the main/external thread; pool workers register
/// index+1 with their stable worker name ("worker-3"), and `deepmc serve`
/// session i registers a tid past every worker's ("session-0"). The
/// label map is global so the tracer can emit thread_name metadata.
void set_thread_label(uint32_t tid, std::string name);
uint32_t thread_tid();
/// The calling thread's label ("main" until set_thread_label).
std::string thread_label();
/// Copy of the tid -> name map (tracer exposition).
std::vector<std::pair<uint32_t, std::string>> thread_labels();

/// Shard count of the thread-keyed stores: the registry's metric cells
/// and each Recorder's rings. A thread records into shard_of(thread_tid()),
/// so threads whose tids are equal modulo kShards share a shard.
inline constexpr size_t kShards = 16;
constexpr size_t shard_of(uint32_t tid) { return tid % kShards; }

enum class Volatility : uint8_t {
  kStable,   ///< pure function of the inputs; identical across runs & --jobs
  kVolatile  ///< scheduling / wall-clock dependent
};

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

class Registry;

class Counter {
 public:
  void inc(uint64_t n = 1);

 private:
  friend class Registry;
  explicit Counter(size_t cell) : cell_(cell) {}
  size_t cell_;
};

/// Last-write-wins scalar (one cell, in shard 0 only); for
/// configuration-shaped values set once per run (pool size, ...).
class Gauge {
 public:
  void set(uint64_t v);

 private:
  friend class Registry;
  explicit Gauge(size_t cell) : cell_(cell) {}
  size_t cell_;
};

struct HistogramDef;
struct HistogramValue;

/// Fixed-bucket histogram; bucket i counts observations v <= bounds[i]
/// (first matching bound), larger values land in the overflow bucket.
class Histogram {
 public:
  void observe(uint64_t v);

  /// Fold a pre-aggregated local histogram with the SAME bounds into this
  /// one (bucketwise counts + overflow + exact sum). Lets hot loops
  /// accumulate into a plain local HistogramValue and publish once,
  /// instead of paying an atomic per observation. Mismatched bounds are
  /// re-bucketed by upper bound (lossy only toward coarser buckets).
  void add(const HistogramValue& v);

 private:
  friend class Registry;
  explicit Histogram(const HistogramDef* def) : def_(def) {}
  const HistogramDef* def_;
};

struct HistogramValue {
  std::vector<uint64_t> bounds;
  std::vector<uint64_t> counts;  ///< per-bucket (non-cumulative)
  uint64_t overflow = 0;
  uint64_t sum = 0;
  uint64_t count = 0;
};

/// A deterministic merged view of every registered metric, sorted by
/// name within each kind.
struct Snapshot {
  template <typename V>
  struct Entry {
    std::string name;
    std::string help;
    Volatility vol = Volatility::kStable;
    V value{};
  };
  std::vector<Entry<uint64_t>> counters;
  std::vector<Entry<uint64_t>> gauges;
  std::vector<Entry<HistogramValue>> histograms;
  /// Wall clock of the run; lives in the volatile section's explicitly
  /// marked "wall_clock" object. Filled by the caller.
  double wall_ms = 0;

  /// Schema "deepmc-metrics-v1". The "stable" section comes first; the
  /// "volatile" section (when included) is the last top-level key, so
  /// stripping it textually is a prefix cut at the `  "volatile": {`
  /// line. to_json(false) produces exactly that stripped form.
  [[nodiscard]] std::string to_json(bool include_volatile = true) const;

  /// Prometheus text exposition (names are prefixed "deepmc_" with
  /// dots/dashes mapped to underscores) for the future server mode.
  void to_prometheus(std::ostream& os) const;

  /// Human summary table (the --stats sink). `header` is printed after
  /// the banner line (pool size, job count, ...).
  void print_stats(std::ostream& os, const std::string& header) const;
};

class Registry {
 public:
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register (or look up) a metric. Re-registering the same name with
  /// the same kind returns the existing metric; a kind mismatch throws.
  Counter counter(const std::string& name, Volatility vol, std::string help);
  Gauge gauge(const std::string& name, Volatility vol, std::string help);
  Histogram histogram(const std::string& name, Volatility vol,
                      std::string help, std::vector<uint64_t> bounds);

  /// Deterministic merged view of all shards. A snapshot taken while
  /// threads record is race-free but may miss their latest counts; the
  /// CLI snapshots after the driver's pool has been joined.
  [[nodiscard]] Snapshot snapshot() const;

  /// Zero every value (definitions persist). Tests and benches isolate
  /// measurements with this.
  void reset();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;
  friend Registry& registry();
  Registry();
  struct Impl;  ///< the definitions and the cell shards (metrics.cpp)
  Impl* impl_;
};

/// The process-wide registry, the only one (leaked on purpose, so
/// recording stays safe at any point during shutdown).
Registry& registry();

/// Exact rank-based quantile over the fixed buckets: the smallest bucket
/// upper bound whose cumulative count reaches ceil(q * count). Because
/// buckets are fixed, this is deterministic (no interpolation) and tests
/// can assert exact p50/p99 on synthetic data. Ranks landing in the
/// overflow bucket saturate to the last bound; an empty histogram
/// returns 0. `q` is clamped to [0, 1].
uint64_t histogram_quantile(const HistogramValue& v, double q);

/// Default exponential time buckets in microseconds:
/// 50us .. 1s in 1-5-10 steps.
std::vector<uint64_t> time_buckets_us();

}  // namespace deepmc::obs
