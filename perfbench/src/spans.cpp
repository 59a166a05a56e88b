#include "spans.h"

#include <atomic>
#include <mutex>

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<SpanRec> g_spans;  // guarded by g_mu
thread_local int64_t t_current = -1;

}  // namespace

void Tracer::set_enabled(bool on) { g_enabled.store(on); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRec> Tracer::take() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<SpanRec> out;
  out.swap(g_spans);
  return out;
}

double Tracer::span_cost_ns() {
  constexpr int kSpans = 20000;
  const bool was = enabled();
  set_enabled(true);
  std::vector<SpanRec> saved = take();
  const int64_t t0 = now_ns();
  for (int i = 0; i < kSpans; ++i) Span s("bench", "calibrate");
  const int64_t t1 = now_ns();
  (void)take();
  {
    std::lock_guard<std::mutex> lock(g_mu);
    g_spans.swap(saved);
  }
  set_enabled(was);
  return static_cast<double>(t1 - t0) / kSpans;
}

Span::Span(const char* layer, const char* name)
    : Span(layer, name, t_current) {}

Span::Span(const char* layer, const char* name, int64_t parent)
    : layer_(layer), name_(name), start_(Tracer::now_ns()) {
  if (!Tracer::enabled()) return;
  prev_ = t_current;
  std::lock_guard<std::mutex> lock(g_mu);
  id_ = static_cast<int64_t>(g_spans.size());
  SpanRec rec;
  rec.layer = layer_;
  rec.name = name_;
  rec.start_ns = start_;
  rec.parent = parent;
  g_spans.push_back(std::move(rec));
  t_current = id_;
}

Span::~Span() {
  if (id_ < 0) return;
  const int64_t end = Tracer::now_ns();
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans[static_cast<size_t>(id_)].end_ns = end;
  t_current = prev_;
}

}  // namespace perfbench
