// The benchmark's own arithmetic: order statistics, geometric means and
// the self-time rollup of nested spans. Header-only so the self test
// (selftest.cpp) checks exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `v` (q in [0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// The highest of `ladder` (descending quantiles) that leaves at least
/// `min_above` samples strictly above its nearest rank in a sample of `n`;
/// 0.5 when none does. A p99 needs 1000 samples for ten to lie above it.
inline double tail_quantile(size_t n, size_t min_above = 10,
                            const std::vector<double>& ladder = {0.999, 0.99,
                                                                 0.95, 0.9}) {
  for (double q : ladder) {
    const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    if (n >= rank && n - rank >= min_above) return q;
  }
  return 0.5;
}

/// Geometric mean of positive ratios; 0 when any ratio is not positive.
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) {
    if (!(x > 0)) return 0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Total length of the union of half-open intervals [a, b), clipped to
/// [lo, hi). Overlapping intervals (children running on several threads)
/// count once.
inline int64_t covered_length(std::vector<std::pair<int64_t, int64_t>> iv,
                              int64_t lo, int64_t hi) {
  std::sort(iv.begin(), iv.end());
  int64_t total = 0;
  int64_t cur_a = 0, cur_b = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) total += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) total += cur_b - cur_a;
  return total;
}

/// One closed span: `parent` is the index of the enclosing span in the
/// same record vector, or -1 for a root.
struct SpanRec {
  std::string layer;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
};

/// Self time per span: its duration minus the part of it that its direct
/// children cover (children may overlap one another).
inline std::vector<int64_t> self_times(const std::vector<SpanRec>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const SpanRec& s : spans)
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size())
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  std::vector<int64_t> out(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t dur = spans[i].end_ns - spans[i].start_ns;
    out[i] = dur - covered_length(std::move(kids[i]), spans[i].start_ns,
                                  spans[i].end_ns);
  }
  return out;
}

/// Self time summed per layer, in nanoseconds.
inline std::map<std::string, int64_t> layer_self_ns(
    const std::vector<SpanRec>& spans) {
  const std::vector<int64_t> self = self_times(spans);
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans.size(); ++i) out[spans[i].layer] += self[i];
  return out;
}

/// Share of the time under root spans of layer `outer` during which at
/// least one descendant span of another layer was open. Spans must be in
/// opening order (parents before children).
inline double covered_share(const std::vector<SpanRec>& spans,
                            const std::string& outer) {
  std::vector<int64_t> root(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t p = spans[i].parent;
    root[i] = p >= 0 && static_cast<size_t>(p) < i ? root[static_cast<size_t>(p)]
                                                   : static_cast<int64_t>(i);
  }
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> inner;
  for (size_t i = 0; i < spans.size(); ++i)
    if (spans[i].layer != outer)
      inner[root[i]].emplace_back(spans[i].start_ns, spans[i].end_ns);
  int64_t wall = 0, covered = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (root[i] != static_cast<int64_t>(i) || spans[i].layer != outer) continue;
    wall += spans[i].end_ns - spans[i].start_ns;
    auto it = inner.find(static_cast<int64_t>(i));
    if (it != inner.end())
      covered += covered_length(std::move(it->second), spans[i].start_ns,
                                spans[i].end_ns);
  }
  return wall > 0 ? static_cast<double>(covered) / static_cast<double>(wall) : 0;
}

/// Total duration of spans with this name, in nanoseconds.
inline int64_t named_ns(const std::vector<SpanRec>& spans,
                        const std::string& name) {
  int64_t total = 0;
  for (const SpanRec& s : spans)
    if (s.name == name) total += s.end_ns - s.start_ns;
  return total;
}

}  // namespace perfbench
