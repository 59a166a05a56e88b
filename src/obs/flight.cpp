#include "obs/flight.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <mutex>
#include <ostream>

#include "obs/metrics.h"
#include "support/str.h"

namespace deepmc::obs {

namespace {

// Enough shards that pool workers and serve sessions rarely share one;
// shard choice is thread id, so a single thread's events never race.
constexpr size_t kShards = 16;

}  // namespace

struct FlightRecorder::Impl {
  struct Shard {
    mutable std::mutex mu;
    std::vector<FlightEvent> ring;  ///< grows lazily up to `cap`, then wraps
    size_t next = 0;                ///< ring write position once full
    size_t cap = 0;                 ///< per-shard bound (= global capacity)
  };

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
  armed_.store(false, std::memory_order_release);
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
  armed_.store(true, std::memory_order_release);
}

void FlightRecorder::disarm() {
  armed_.store(false, std::memory_order_release);
  for (Impl::Shard& s : impl_->shards) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.ring.clear();
    s.ring.shrink_to_fit();
    s.next = 0;
    s.cap = 0;
  }
  impl_->capacity = 0;
}

size_t FlightRecorder::capacity() const { return impl_->capacity; }

void FlightRecorder::record_args(const char* kind,
                                 std::span<const Arg> args) {
  const uint32_t tid = thread_tid();
  Impl::Shard& s = impl_->shards[tid % kShards];
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.cap == 0) return;  // disarmed concurrently
  FlightEvent* e = nullptr;
  if (s.ring.size() < s.cap) {
    e = &s.ring.emplace_back();
  } else {
    // Overwrite the oldest slot in place: Args::assign reuses its buffer.
    e = &s.ring[s.next];
    s.next = (s.next + 1) % s.cap;
  }
  // The seq is taken under the shard lock: threads sharing a shard (every
  // unlabeled thread has tid 0) then insert in seq order, so a wrapping
  // ring always evicts the shard's oldest event, never a newer one.
  e->seq = impl_->seq.fetch_add(1, std::memory_order_relaxed);
  e->ms = std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - impl_->t0)
              .count();
  e->tid = tid;
  e->kind = kind;
  e->args.assign(args);
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
  std::string line;
  for (const FlightEvent& e : events()) {
    line.assign("{\"seq\": ");
    line += std::to_string(e.seq);
    line += ", \"ms\": ";
    append_fixed3(line, e.ms);
    line += ", \"tid\": ";
    line += std::to_string(e.tid);
    line += ", \"kind\": ";
    json_quote_append(line, e.kind);
    if (!e.args.empty()) {
      line += ", \"detail\": ";
      e.args.append_json(line);
    }
    line += "}\n";
    os << line;
  }
}

bool FlightRecorder::dump_file(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f.good()) return false;
  dump_jsonl(f);
  return f.good();
}

}  // namespace deepmc::obs
