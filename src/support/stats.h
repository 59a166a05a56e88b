// Lightweight counters and timing helpers for benches and the PM substrate.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <vector>

namespace deepmc {

/// Monotonic wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() { reset(); }
  void reset() { start_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// The middle value of `xs`, or the mean of the middle two for an even
/// count; 0 when empty.
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t mid = xs.size() / 2;
  return xs.size() % 2 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2;
}

/// Two bodies timed against each other: the one timing rule behind every
/// ratio gate in bench/bench_gates.cpp. A body runs one iteration and
/// returns the seconds it timed (positive), so untimed setup such as a
/// fresh cache directory or daemon stays out. A sample repeats a body until
/// its timed sum reaches kSampleFloor, so no sample is short enough for one
/// scheduler hiccup to decide it. kPairs pairs of samples alternate which
/// side runs first, so drift in the machine's load lands on both sides. The
/// figure is the median over pairs of the ratio of per-iteration means, so
/// one disturbed pair cannot move it.
struct PairedTiming {
  static constexpr double kSampleFloor = 0.050;  ///< seconds per sample
  static constexpr size_t kPairs = 10;

  std::vector<double> a, b;  ///< per pair, each side's per-iteration mean (s)

  /// Median over pairs of side a's per-iteration mean over side b's.
  [[nodiscard]] double ratio() const {
    std::vector<double> r;
    r.reserve(a.size());
    for (size_t i = 0; i < a.size(); ++i) r.push_back(a[i] / b[i]);
    return median(std::move(r));
  }
  [[nodiscard]] double median_a() const { return median(a); }
  [[nodiscard]] double median_b() const { return median(b); }
};

/// One sample: `body` repeated until its timed sum reaches the floor; the
/// per-iteration mean.
template <typename Body>
double timed_sample(Body& body) {
  double sum = 0;
  size_t n = 0;
  while (sum < PairedTiming::kSampleFloor) {
    sum += body();
    ++n;
  }
  return sum / static_cast<double>(n);
}

/// kPairs pairs of samples of `a` and `b`; side a runs first in the even
/// pairs and side b in the odd ones.
template <typename A, typename B>
PairedTiming time_pairs(A&& a, B&& b) {
  PairedTiming t;
  for (size_t i = 0; i < PairedTiming::kPairs; ++i) {
    if (i % 2 == 0) {
      t.a.push_back(timed_sample(a));
      t.b.push_back(timed_sample(b));
    } else {
      t.b.push_back(timed_sample(b));
      t.a.push_back(timed_sample(a));
    }
  }
  return t;
}

/// Process-CPU-time stopwatch: immune to scheduler noise on shared
/// machines, which is what the throughput benches need.
class CpuStopwatch {
 public:
  CpuStopwatch() { reset(); }
  void reset() { start_ = now(); }
  [[nodiscard]] double seconds() const { return now() - start_; }

 private:
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  double start_;
};

/// Streaming mean/min/max accumulator.
struct Accumulator {
  uint64_t n = 0;
  double sum = 0, min = 0, max = 0;

  void add(double x) {
    if (n == 0) {
      min = max = x;
    } else {
      if (x < min) min = x;
      if (x > max) max = x;
    }
    sum += x;
    ++n;
  }
  [[nodiscard]] double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
};

}  // namespace deepmc
