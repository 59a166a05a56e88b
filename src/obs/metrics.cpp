#include "obs/metrics.h"

#include <array>
#include <atomic>
#include <cmath>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>
#include <stdexcept>

#include "support/str.h"

namespace deepmc::obs {

namespace {

std::atomic<bool> g_enabled{false};

// --- thread identity --------------------------------------------------------

thread_local uint32_t t_tid = 0;

std::mutex& label_mu() {
  static std::mutex mu;
  return mu;
}
std::map<uint32_t, std::string>& label_map() {
  static std::map<uint32_t, std::string>* m =
      new std::map<uint32_t, std::string>{{0, "main"}};
  return *m;
}

// --- cell space -------------------------------------------------------------

// Fixed capacity so recording never reallocates concurrently with reads:
// a handle's cell index is valid for the life of the process and inc() is
// a single relaxed fetch_add with no lock. Plenty for the pipeline's
// metric set plus one busy-time counter per worker at --jobs 1024.
constexpr size_t kShardCells = 4096;

using Cells = std::array<std::atomic<uint64_t>, kShardCells>;

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

void set_thread_label(uint32_t tid, std::string name) {
  t_tid = tid;
  std::lock_guard<std::mutex> lock(label_mu());
  label_map()[tid] = std::move(name);
}

uint32_t thread_tid() { return t_tid; }

std::string thread_label() {
  std::lock_guard<std::mutex> lock(label_mu());
  return label_map().at(t_tid);
}

std::vector<std::pair<uint32_t, std::string>> thread_labels() {
  std::lock_guard<std::mutex> lock(label_mu());
  return {label_map().begin(), label_map().end()};
}

// ===========================================================================
// Registry implementation
// ===========================================================================

struct HistogramDef {
  size_t cell = 0;  ///< [cell, cell+n) buckets, cell+n overflow, cell+n+1 sum
  std::vector<uint64_t> bounds;
};

struct Registry::Impl {
  struct Def {
    std::string name, help;
    MetricKind kind = MetricKind::kCounter;
    Volatility vol = Volatility::kStable;
    size_t cell = 0;  ///< first of the metric's cells
    const HistogramDef* hist = nullptr;
  };

  mutable std::mutex mu;
  std::deque<Def> defs;
  std::map<std::string, size_t> by_name;  ///< sorted — exposition order
  std::deque<HistogramDef> hist_defs;     ///< stable addresses for handles
  size_t next_cell = 0;
  /// Null until its first record, then kept for the process: a run with
  /// telemetry off allocates no shard.
  std::array<std::atomic<Cells*>, kShards> shards{};

  Cells& shard(size_t i) {
    Cells* s = shards[i].load(std::memory_order_acquire);
    if (s) return *s;
    auto* made = new Cells();
    if (shards[i].compare_exchange_strong(s, made, std::memory_order_acq_rel))
      return *made;
    delete made;  // another thread published this shard first
    return *s;
  }
  Cells& local() { return shard(shard_of(thread_tid())); }

  /// The definition of `name`; a new metric gets `cells` fresh cells.
  Def& define(const std::string& name, MetricKind kind, Volatility vol,
              std::string help, size_t cells) {
    auto it = by_name.find(name);
    if (it != by_name.end()) {
      Def& d = defs[it->second];
      if (d.kind != kind)
        throw std::logic_error("obs: metric '" + name +
                               "' re-registered with a different kind");
      return d;
    }
    if (next_cell + cells > kShardCells)
      throw std::runtime_error("obs: metric cell space exhausted");
    defs.push_back(Def{name, std::move(help), kind, vol, next_cell, nullptr});
    next_cell += cells;
    by_name.emplace(name, defs.size() - 1);
    return defs.back();
  }

  uint64_t cell_total(size_t cell) const {
    uint64_t v = 0;
    for (const auto& slot : shards)
      if (const Cells* s = slot.load(std::memory_order_acquire))
        v += (*s)[cell].load(std::memory_order_relaxed);
    return v;
  }
};

Registry::Registry() : impl_(new Impl()) {}

Registry& registry() {
  static Registry* r = new Registry();  // leaked; see header
  return *r;
}

Counter Registry::counter(const std::string& name, Volatility vol,
                          std::string help) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return Counter(
      impl_->define(name, MetricKind::kCounter, vol, std::move(help), 1).cell);
}

Gauge Registry::gauge(const std::string& name, Volatility vol,
                      std::string help) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return Gauge(
      impl_->define(name, MetricKind::kGauge, vol, std::move(help), 1).cell);
}

Histogram Registry::histogram(const std::string& name, Volatility vol,
                              std::string help,
                              std::vector<uint64_t> bounds) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Impl::Def& d = impl_->define(name, MetricKind::kHistogram, vol,
                               std::move(help), bounds.size() + 2);
  if (!d.hist)
    d.hist = &impl_->hist_defs.emplace_back(
        HistogramDef{d.cell, std::move(bounds)});
  return Histogram(d.hist);
}

void Counter::inc(uint64_t n) {
  if (!enabled()) return;
  registry().impl_->local()[cell_].fetch_add(n, std::memory_order_relaxed);
}

void Gauge::set(uint64_t v) {
  if (!enabled()) return;
  registry().impl_->shard(0)[cell_].store(v, std::memory_order_relaxed);
}

void Histogram::observe(uint64_t v) {
  if (!enabled()) return;
  Cells& s = registry().impl_->local();
  const auto& bounds = def_->bounds;
  size_t i = 0;
  while (i < bounds.size() && v > bounds[i]) ++i;
  // i == bounds.size() -> overflow bucket.
  s[def_->cell + i].fetch_add(1, std::memory_order_relaxed);
  s[def_->cell + bounds.size() + 1].fetch_add(v, std::memory_order_relaxed);
}

void Histogram::add(const HistogramValue& v) {
  if (!enabled()) return;
  Cells& s = registry().impl_->local();
  const auto& bounds = def_->bounds;
  auto bucket_add = [&](uint64_t bound_value, uint64_t n) {
    if (n == 0) return;
    size_t i = 0;
    while (i < bounds.size() && bound_value > bounds[i]) ++i;
    s[def_->cell + i].fetch_add(n, std::memory_order_relaxed);
  };
  for (size_t i = 0; i < v.bounds.size() && i < v.counts.size(); ++i)
    bucket_add(v.bounds[i], v.counts[i]);
  // Overflow stays overflow: re-bucket past the largest bound.
  if (v.overflow > 0)
    bucket_add(bounds.empty() ? 0 : bounds.back() + 1, v.overflow);
  if (v.sum > 0)
    s[def_->cell + bounds.size() + 1].fetch_add(v.sum,
                                                std::memory_order_relaxed);
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& [name, idx] : impl_->by_name) {
    const Impl::Def& d = impl_->defs[idx];
    switch (d.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        (d.kind == MetricKind::kCounter ? out.counters : out.gauges)
            .push_back({d.name, d.help, d.vol, impl_->cell_total(d.cell)});
        break;
      case MetricKind::kHistogram: {
        HistogramValue v;
        v.bounds = d.hist->bounds;
        v.counts.reserve(v.bounds.size());
        for (size_t i = 0; i < v.bounds.size(); ++i) {
          const uint64_t c = impl_->cell_total(d.cell + i);
          v.counts.push_back(c);
          v.count += c;
        }
        v.overflow = impl_->cell_total(d.cell + v.bounds.size());
        v.count += v.overflow;
        v.sum = impl_->cell_total(d.cell + v.bounds.size() + 1);
        out.histograms.push_back({d.name, d.help, d.vol, std::move(v)});
        break;
      }
    }
  }
  return out;
}

void Registry::reset() {
  for (const auto& slot : impl_->shards)
    if (Cells* s = slot.load(std::memory_order_acquire))
      for (auto& c : *s) c.store(0, std::memory_order_relaxed);
}

// ===========================================================================
// Exposition
// ===========================================================================

namespace {

std::string fmt_u64(uint64_t v) { return std::to_string(v); }

std::string fmt_ms(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

std::string hist_json(const HistogramValue& v) {
  std::string out = "{\"bounds\": [";
  for (size_t i = 0; i < v.bounds.size(); ++i)
    out += (i ? ", " : "") + fmt_u64(v.bounds[i]);
  out += "], \"counts\": [";
  for (size_t i = 0; i < v.counts.size(); ++i)
    out += (i ? ", " : "") + fmt_u64(v.counts[i]);
  out += "], \"overflow\": " + fmt_u64(v.overflow);
  out += ", \"sum\": " + fmt_u64(v.sum);
  out += ", \"count\": " + fmt_u64(v.count) + "}";
  return out;
}

/// One "stable"/"volatile" section body (counters + gauges + histograms
/// filtered by volatility), indented by 4 spaces.
std::string section_json(const Snapshot& s, Volatility vol) {
  std::string out;
  out += "    \"counters\": {";
  bool first = true;
  for (const auto& c : s.counters) {
    if (c.vol != vol) continue;
    out += first ? "\n" : ",\n";
    out += "      " + json_quote(c.name) + ": " + fmt_u64(c.value);
    first = false;
  }
  out += first ? "},\n" : "\n    },\n";
  out += "    \"gauges\": {";
  first = true;
  for (const auto& g : s.gauges) {
    if (g.vol != vol) continue;
    out += first ? "\n" : ",\n";
    out += "      " + json_quote(g.name) + ": " + fmt_u64(g.value);
    first = false;
  }
  out += first ? "},\n" : "\n    },\n";
  out += "    \"histograms\": {";
  first = true;
  for (const auto& h : s.histograms) {
    if (h.vol != vol) continue;
    out += first ? "\n" : ",\n";
    out += "      " + json_quote(h.name) + ": " + hist_json(h.value);
    first = false;
  }
  out += first ? "}" : "\n    }";
  return out;
}

std::string prom_name(const std::string& name) {
  std::string out = "deepmc_";
  for (char c : name)
    out += (c == '.' || c == '-') ? '_' : c;
  return out;
}

}  // namespace

std::string Snapshot::to_json(bool include_volatile) const {
  std::string out = "{\n  \"schema\": \"deepmc-metrics-v1\",\n";
  out += "  \"stable\": {\n";
  out += section_json(*this, Volatility::kStable);
  out += "\n  }";
  if (include_volatile) {
    out += ",\n  \"volatile\": {\n";
    out += section_json(*this, Volatility::kVolatile);
    out += ",\n    \"wall_clock\": {\"elapsed_ms\": " + fmt_ms(wall_ms) + "}";
    out += "\n  }";
  }
  out += "\n}\n";
  return out;
}

void Snapshot::to_prometheus(std::ostream& os) const {
  for (const auto& c : counters) {
    const std::string n = prom_name(c.name);
    os << "# HELP " << n << " " << c.help << "\n";
    os << "# TYPE " << n << " counter\n";
    os << n << " " << c.value << "\n";
  }
  for (const auto& g : gauges) {
    const std::string n = prom_name(g.name);
    os << "# HELP " << n << " " << g.help << "\n";
    os << "# TYPE " << n << " gauge\n";
    os << n << " " << g.value << "\n";
  }
  for (const auto& h : histograms) {
    const std::string n = prom_name(h.name);
    os << "# HELP " << n << " " << h.help << "\n";
    os << "# TYPE " << n << " histogram\n";
    uint64_t cum = 0;
    for (size_t i = 0; i < h.value.bounds.size(); ++i) {
      cum += h.value.counts[i];
      os << n << "_bucket{le=\"" << h.value.bounds[i] << "\"} " << cum << "\n";
    }
    os << n << "_bucket{le=\"+Inf\"} " << h.value.count << "\n";
    os << n << "_sum " << h.value.sum << "\n";
    os << n << "_count " << h.value.count << "\n";
  }
}

void Snapshot::print_stats(std::ostream& os, const std::string& header) const {
  os << "== deepmc stats ==\n";
  if (!header.empty()) os << header << "\n";
  auto print_section = [&](Volatility vol, const char* title) {
    os << title << ":\n";
    char buf[160];
    for (const auto& c : counters) {
      if (c.vol != vol) continue;
      std::snprintf(buf, sizeof buf, "  %-44s %llu\n", c.name.c_str(),
                    static_cast<unsigned long long>(c.value));
      os << buf;
    }
    for (const auto& g : gauges) {
      if (g.vol != vol) continue;
      std::snprintf(buf, sizeof buf, "  %-44s %llu\n", g.name.c_str(),
                    static_cast<unsigned long long>(g.value));
      os << buf;
    }
    for (const auto& h : histograms) {
      if (h.vol != vol) continue;
      const double mean =
          h.value.count
              ? static_cast<double>(h.value.sum) /
                    static_cast<double>(h.value.count)
              : 0.0;
      std::snprintf(buf, sizeof buf,
                    "  %-44s count=%llu sum=%llu mean=%.1f\n",
                    h.name.c_str(),
                    static_cast<unsigned long long>(h.value.count),
                    static_cast<unsigned long long>(h.value.sum), mean);
      os << buf;
    }
  };
  print_section(Volatility::kStable, "stable");
  print_section(Volatility::kVolatile, "volatile");
  char buf[64];
  std::snprintf(buf, sizeof buf, "wall clock: %.3f ms\n", wall_ms);
  os << buf;
}

uint64_t histogram_quantile(const HistogramValue& v, double q) {
  if (v.count == 0 || v.bounds.empty()) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // rank is 1-based; q = 0 still needs the first observation.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(v.count)));
  if (rank == 0) rank = 1;
  uint64_t cum = 0;
  for (size_t i = 0; i < v.bounds.size(); ++i) {
    cum += v.counts[i];
    if (cum >= rank) return v.bounds[i];
  }
  return v.bounds.back();  // overflow: saturate at the largest bound
}

std::vector<uint64_t> time_buckets_us() {
  return {50, 100, 500, 1000, 5000, 10000, 50000, 100000, 500000, 1000000};
}

}  // namespace deepmc::obs
