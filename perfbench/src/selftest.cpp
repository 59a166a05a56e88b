// Tests of the benchmark's own arithmetic (bench_math.h) and of the span
// recorder. Run with `python3 perfbench/run.py --selftest`; exits 1 on
// the first failed expectation.
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "spans.h"

namespace {

int g_failed = 0;

void expect(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++g_failed;
}

bool near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

perfbench::SpanRec span(const char* layer, int64_t a, int64_t b, int64_t parent) {
  perfbench::SpanRec s;
  s.layer = layer;
  s.name = layer;
  s.start_ns = a;
  s.end_ns = b;
  s.parent = parent;
  return s;
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(perfbench::percentile(v, 0.5) == 50, "nearest-rank p50 of 1..100 is 50");
  expect(perfbench::percentile(v, 0.99) == 99, "nearest-rank p99 of 1..100 is 99");
  expect(perfbench::percentile(v, 1.0) == 100, "p100 is the maximum");
  expect(perfbench::percentile({}, 0.5) == 0, "empty sample reads 0");
  expect(perfbench::median({3, 1, 2}) == 2, "median ignores input order");

  // Ten samples must lie above the reported percentile's rank.
  expect(perfbench::tail_quantile(1000) == 0.99, "1000 samples support p99");
  expect(perfbench::tail_quantile(999) == 0.95, "999 samples fall back to p95");
  expect(perfbench::tail_quantile(10000) == 0.999, "10000 samples support p99.9");
  expect(perfbench::tail_quantile(100) == 0.9, "100 samples support p90");
  expect(perfbench::tail_quantile(99) == 0.5, "99 samples support only p50");
}

void test_geomean() {
  expect(near(perfbench::geomean({2, 8}), 4), "geomean of 2 and 8 is 4");
  expect(near(perfbench::geomean({12, 1.5, 1.5, 2}), std::pow(54.0, 0.25)),
         "geomean of overhead ratios");
  expect(perfbench::geomean({1, 0}) == 0, "a non-positive ratio reads 0");
  expect(perfbench::geomean({}) == 0, "no ratios read 0");
  // off/shared throughput ratios: geomean(a/b) == geomean(a)/geomean(b).
  const double r = perfbench::geomean({10.0 / 2, 9.0 / 3});
  expect(near(r, perfbench::geomean({10, 9}) / perfbench::geomean({2, 3})),
         "geomean of ratios equals ratio of geomeans");
}

void test_self_time() {
  using perfbench::SpanRec;
  // Parent [0,100) with children [10,40) and [30,60) overlapping (two
  // threads) and [80,90): covered 50 + 10, self 40.
  std::vector<SpanRec> s = {span("bench", 0, 100, -1), span("crash", 10, 40, 0),
                            span("crash", 30, 60, 0), span("pmem", 80, 90, 0)};
  const std::vector<int64_t> self = perfbench::self_times(s);
  expect(self[0] == 40, "parent self time subtracts the union of overlapping children");
  expect(self[1] == 30 && self[2] == 30, "leaf self time is its duration");
  auto by_layer = perfbench::layer_self_ns(s);
  expect(by_layer["crash"] == 60 && by_layer["pmem"] == 10 && by_layer["bench"] == 40,
         "self time sums per layer");

  // Grandchild inside a child: the child loses it, the parent does not.
  std::vector<SpanRec> n = {span("bench", 0, 100, -1), span("crash", 0, 50, 0),
                            span("pmem", 10, 30, 1)};
  const std::vector<int64_t> ns = perfbench::self_times(n);
  expect(ns[0] == 50 && ns[1] == 30 && ns[2] == 20, "nested self times");
  expect(near(perfbench::covered_share(n, "bench"), 0.5),
         "covered share counts descendants once");

  // A child sticking out of its parent is clipped to the parent.
  std::vector<SpanRec> c = {span("bench", 0, 10, -1), span("serve", 5, 20, 0)};
  expect(perfbench::self_times(c)[0] == 5, "children are clipped to the parent");
  expect(near(perfbench::covered_share(c, "bench"), 0.5), "clipped coverage");

  expect(perfbench::covered_length({{0, 5}, {5, 10}}, 0, 10) == 10,
         "touching intervals cover their sum");
  expect(perfbench::covered_length({{2, 3}, {0, 10}, {4, 6}}, 0, 10) == 10,
         "nested intervals count once");
}

void test_recorder() {
  perfbench::Tracer::set_enabled(true);
  (void)perfbench::Tracer::take();
  int64_t outer_id = -1;
  {
    perfbench::Span outer("bench", "outer");
    outer_id = outer.id();
    { perfbench::Span inner("ir", "inner"); }
    std::thread t([outer_id] { perfbench::Span remote("serve", "remote", outer_id); });
    t.join();
  }
  perfbench::Tracer::set_enabled(false);
  { perfbench::Span off("ir", "not recorded"); }
  const std::vector<perfbench::SpanRec> spans = perfbench::Tracer::take();
  expect(spans.size() == 3, "three spans recorded, none while off");
  expect(spans.size() == 3 && spans[1].parent == outer_id && spans[2].parent == outer_id,
         "same-thread and cross-thread children point at the parent");
  expect(spans.size() == 3 && spans[0].end_ns >= spans[2].end_ns,
         "parent closes after its children");
}

}  // namespace

int main() {
  test_percentiles();
  test_geomean();
  test_self_time();
  test_recorder();
  std::printf("%s\n", g_failed == 0 ? "PASS" : "FAIL");
  return g_failed == 0 ? 0 : 1;
}
