#include "obs/flight.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <ostream>

#include "obs/metrics.h"

namespace deepmc::obs {

namespace {

// Enough shards that pool workers and serve sessions rarely share one;
// shard choice is thread id, so a single thread's events never race.
constexpr size_t kShards = 16;

void esc_append(std::string& out, std::string_view s) {
  // Fast path: nothing to escape (the overwhelmingly common case for
  // unit names, cache keys and rule ids) appends in one shot.
  if (s.find_first_of('"') == std::string_view::npos &&
      s.find_first_of('\\') == std::string_view::npos &&
      std::none_of(s.begin(), s.end(), [](char c) {
        return static_cast<unsigned char>(c) < 0x20;
      })) {
    out.append(s);
    return;
  }
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
}

std::string esc(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  esc_append(out, s);
  return out;
}

}  // namespace

struct FlightRecorder::Impl {
  struct Shard {
    mutable std::mutex mu;
    std::vector<FlightEvent> ring;  ///< grows lazily up to `cap`, then wraps
    size_t next = 0;                ///< ring write position once full
    size_t cap = 0;                 ///< per-shard bound (= global capacity)
  };

  std::atomic<bool> armed{false};
  std::atomic<uint64_t> seq{0};
  size_t capacity = 0;
  std::chrono::steady_clock::time_point t0;
  std::array<Shard, kShards> shards;
};

FlightRecorder::FlightRecorder() : impl_(new Impl()) {}

FlightRecorder& flight() {
  static FlightRecorder* f = new FlightRecorder();  // leaked; see header
  return *f;
}

void FlightRecorder::arm(size_t capacity) {
  impl_->armed.store(false, std::memory_order_release);
  if (capacity == 0) capacity = 1;
  // Every shard may hold up to the full budget (grown lazily, so memory
  // tracks what was actually recorded): a single-threaded process keeps
  // its last `capacity` events even though it only ever touches one
  // shard. The merged view trims to the newest `capacity` globally.
  for (Impl::Shard& s : impl_->shards) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.ring.clear();
    s.ring.shrink_to_fit();
    s.next = 0;
    s.cap = capacity;
  }
  impl_->capacity = capacity;
  impl_->seq.store(0, std::memory_order_relaxed);
  impl_->t0 = std::chrono::steady_clock::now();
  impl_->armed.store(true, std::memory_order_release);
}

void FlightRecorder::disarm() {
  impl_->armed.store(false, std::memory_order_release);
  for (Impl::Shard& s : impl_->shards) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.ring.clear();
    s.ring.shrink_to_fit();
    s.next = 0;
    s.cap = 0;
  }
  impl_->capacity = 0;
}

bool FlightRecorder::armed() const {
  return impl_->armed.load(std::memory_order_relaxed);
}

size_t FlightRecorder::capacity() const { return impl_->capacity; }

void FlightRecorder::record(const char* kind, std::string detail) {
  if (!armed()) return;
  FlightEvent e;
  e.tid = thread_tid();
  e.kind = kind;
  e.detail = std::move(detail);

  Impl::Shard& s = impl_->shards[e.tid % kShards];
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.cap == 0) return;  // disarmed concurrently
  // The seq is taken under the shard lock: threads sharing a shard (every
  // unlabeled thread has tid 0) then insert in seq order, so a wrapping
  // ring always evicts the shard's oldest event, never a newer one.
  e.seq = impl_->seq.fetch_add(1, std::memory_order_relaxed);
  e.ms = std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - impl_->t0)
             .count();
  if (s.ring.size() < s.cap) {
    s.ring.push_back(std::move(e));
  } else {
    s.ring[s.next] = std::move(e);
    s.next = (s.next + 1) % s.cap;
  }
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> out;
  for (const Impl::Shard& s : impl_->shards) {
    std::lock_guard<std::mutex> lock(s.mu);
    out.insert(out.end(), s.ring.begin(), s.ring.end());
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  // Each shard bounds itself at the full budget, so the merged view can
  // exceed it when several threads recorded; trim to the newest
  // `capacity` so the contract — "the last N, in seq order" — holds
  // regardless of how events landed on shards.
  if (impl_->capacity > 0 && out.size() > impl_->capacity)
    out.erase(out.begin(),
              out.end() - static_cast<ptrdiff_t>(impl_->capacity));
  return out;
}

void FlightRecorder::dump_jsonl(std::ostream& os) const {
  char num[64];
  for (const FlightEvent& e : events()) {
    os << "{\"seq\": " << e.seq;
    std::snprintf(num, sizeof num, "%.3f", e.ms);
    os << ", \"ms\": " << num << ", \"tid\": " << e.tid << ", \"kind\": \""
       << esc(e.kind) << "\"";
    if (!e.detail.empty()) os << ", \"detail\": {" << e.detail << "}";
    os << "}\n";
  }
}

bool FlightRecorder::dump_file(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f.good()) return false;
  dump_jsonl(f);
  return f.good();
}

std::string flight_kv(const char* key, std::string_view value) {
  if (!flight().armed()) return {};
  std::string out;
  out.reserve(std::char_traits<char>::length(key) + value.size() + 8);
  out += '"';
  esc_append(out, key);
  out += "\": \"";
  esc_append(out, value);
  out += '"';
  return out;
}

std::string flight_kv_num(const char* key, double value) {
  if (!flight().armed()) return {};
  char buf[64];
  const int n = std::snprintf(buf, sizeof buf, "%g", value);
  std::string out;
  out.reserve(std::char_traits<char>::length(key) +
              static_cast<size_t>(n > 0 ? n : 0) + 6);
  out += '"';
  esc_append(out, key);
  out += "\": ";
  out.append(buf);
  return out;
}

void flight_append_kv(std::string& detail, const char* key,
                      std::string_view value) {
  if (!detail.empty()) detail += ", ";
  detail += '"';
  esc_append(detail, key);
  detail += "\": \"";
  esc_append(detail, value);
  detail += '"';
}

void flight_append_kv_num(std::string& detail, const char* key, double value) {
  if (!detail.empty()) detail += ", ";
  detail += '"';
  esc_append(detail, key);
  detail += "\": ";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", value);
  detail += buf;
}

std::string flight_join(std::initializer_list<std::string> pairs) {
  size_t total = 0;
  for (const std::string& p : pairs)
    if (!p.empty()) total += p.size() + 2;
  std::string out;
  out.reserve(total);
  for (const std::string& p : pairs) {
    if (p.empty()) continue;
    if (!out.empty()) out += ", ";
    out += p;
  }
  return out;
}

}  // namespace deepmc::obs
