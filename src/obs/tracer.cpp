#include "obs/tracer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <vector>

#include "obs/metrics.h"

namespace deepmc::obs {

namespace {

struct TraceEvent {
  const char* name;
  const char* cat;
  uint32_t tid;
  double ts;   ///< us since Tracer::start()
  double dur;  ///< us
  std::string args;
};

std::string esc(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    }
  }
  return out;
}

}  // namespace

struct Tracer::Impl {
  struct Buf {
    std::vector<TraceEvent> events;
    size_t next = 0;  ///< ring write position once `events` hits the cap
  };

  std::atomic<bool> active{false};
  std::atomic<size_t> ring_cap{0};  ///< 0 = unbounded (one-shot runs)
  std::chrono::steady_clock::time_point t0;
  std::mutex mu;
  std::vector<Buf*> live;
  std::vector<TraceEvent> retired;
};

namespace {

Tracer::Impl* g_tracer_impl = nullptr;

struct BufHandle {
  Tracer::Impl::Buf* buf = nullptr;
  ~BufHandle() {
    if (!buf || !g_tracer_impl) return;
    std::lock_guard<std::mutex> lock(g_tracer_impl->mu);
    auto& retired = g_tracer_impl->retired;
    retired.insert(retired.end(), buf->events.begin(), buf->events.end());
    auto& live = g_tracer_impl->live;
    for (auto it = live.begin(); it != live.end(); ++it)
      if (*it == buf) {
        live.erase(it);
        break;
      }
    delete buf;
  }
};
thread_local BufHandle t_buf;

Tracer::Impl::Buf& local_buf() {
  if (!t_buf.buf) {
    auto* b = new Tracer::Impl::Buf();
    {
      std::lock_guard<std::mutex> lock(g_tracer_impl->mu);
      g_tracer_impl->live.push_back(b);
    }
    t_buf.buf = b;
  }
  return *t_buf.buf;
}

}  // namespace

Tracer::Tracer() : impl_(new Impl()) { g_tracer_impl = impl_; }

Tracer& tracer() {
  static Tracer* t = new Tracer();  // leaked; see header
  return *t;
}

void Tracer::start() {
  impl_->t0 = std::chrono::steady_clock::now();
  impl_->active.store(true, std::memory_order_release);
}

void Tracer::stop() {
  impl_->active.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->retired.clear();
  for (Impl::Buf* b : impl_->live) {
    b->events.clear();
    b->next = 0;
  }
}

bool Tracer::active() const {
  return impl_->active.load(std::memory_order_relaxed);
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - impl_->t0)
      .count();
}

void Tracer::record(const char* name, const char* cat, double ts_us,
                    double dur_us, std::string args) {
  Impl::Buf& b = local_buf();
  TraceEvent e{name, cat, thread_tid(), ts_us, dur_us, std::move(args)};
  const size_t cap = impl_->ring_cap.load(std::memory_order_relaxed);
  if (cap == 0 || b.events.size() < cap) {
    b.events.push_back(std::move(e));
    return;
  }
  // Ring mode: overwrite the oldest span. write() time-sorts, so the
  // storage rotation never leaks into the exposition order.
  if (b.next >= b.events.size()) b.next = 0;
  b.events[b.next] = std::move(e);
  b.next = (b.next + 1) % cap;
}

void Tracer::set_ring_capacity(size_t cap) {
  impl_->ring_cap.store(cap, std::memory_order_relaxed);
}

void Tracer::write(std::ostream& os) {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    events = impl_->retired;
    for (const Impl::Buf* b : impl_->live)
      events.insert(events.end(), b->events.begin(), b->events.end());
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return a.tid < b.tid;
                   });

  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  os << "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
        "\"process_name\", \"args\": {\"name\": \"deepmc\"}}";
  for (const auto& [tid, name] : thread_labels())
    os << ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
       << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
       << esc(name) << "\"}}";
  char num[64];
  for (const TraceEvent& e : events) {
    os << ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": " << e.tid;
    std::snprintf(num, sizeof num, "%.3f", e.ts);
    os << ", \"ts\": " << num;
    std::snprintf(num, sizeof num, "%.3f", e.dur);
    os << ", \"dur\": " << num;
    os << ", \"name\": \"" << esc(e.name) << "\", \"cat\": \"" << esc(e.cat)
       << "\"";
    if (!e.args.empty()) os << ", \"args\": {" << e.args << "}";
    os << "}";
  }
  os << "\n]}\n";
}

bool Tracer::write_file(const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f.good()) return false;
  write(f);
  return f.good();
}

Span::Span(const char* name, const char* cat, std::string args)
    : name_(name), cat_(cat), args_(std::move(args)) {
  Tracer& t = tracer();
  if (t.active()) start_ = t.now_us();
}

Span::~Span() {
  if (start_ < 0) return;
  Tracer& t = tracer();
  if (!t.active()) return;
  t.record(name_, cat_, start_, t.now_us() - start_, std::move(args_));
}

std::string span_arg(const char* key, std::string_view value) {
  if (!tracer().active()) return {};
  return "\"" + esc(key) + "\": \"" + esc(value) + "\"";
}

std::string span_arg_num(const char* key, double value) {
  if (!tracer().active()) return {};
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", value);
  return "\"" + esc(key) + "\": " + buf;
}

}  // namespace deepmc::obs
