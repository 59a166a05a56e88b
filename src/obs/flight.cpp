#include "obs/flight.h"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "obs/metrics.h"
#include "support/str.h"

namespace deepmc::obs {

Recorder& flight() {
  static Recorder* f = new Recorder();  // leaked; see header
  return *f;
}

void Recorder::arm(size_t capacity) {
  disarm();
  capacity_.store(capacity, std::memory_order_relaxed);
  t0_.store(std::chrono::steady_clock::now(), std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

void Recorder::disarm() {
  armed_.store(false, std::memory_order_release);
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.n = 0;
    s.next = 0;
  }
  seq_.store(0, std::memory_order_relaxed);
}

double Recorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() -
             t0_.load(std::memory_order_relaxed))
      .count();
}

std::pair<std::unique_lock<std::mutex>, Event*> Recorder::claim(
    const char* name, const char* cat, double ts_us, double dur_us) {
  const uint32_t tid = thread_tid();
  Shard& s = shards_[shard_of(tid)];
  std::unique_lock<std::mutex> lock(s.mu);
  if (!armed_.load(std::memory_order_acquire))  // disarmed concurrently
    return {std::move(lock), nullptr};
  // Each shard keeps up to the full capacity, so a single-threaded
  // process keeps its last `capacity` events; events() trims the merged
  // view to the newest `capacity` overall.
  const size_t cap = capacity_.load(std::memory_order_relaxed);
  if (s.next == s.slots.size()) s.slots.emplace_back();
  Event* e = &s.slots[s.next];
  if (cap == kUnbounded || s.n < cap) ++s.n;
  s.next = s.next + 1 == cap ? 0 : s.next + 1;
  // The seq is taken under the shard lock: threads sharing a shard (every
  // unlabeled thread has tid 0) then insert in seq order, so a wrapping
  // ring always evicts the shard's oldest event, never a newer one.
  e->seq = seq_.fetch_add(1, std::memory_order_relaxed);
  e->ts_us = ts_us;
  e->dur_us = dur_us;
  e->tid = tid;
  e->name = name;
  e->cat = cat;
  return {std::move(lock), e};
}

void Recorder::record_args(const char* name, std::span<const Arg> args) {
  // Overwriting a used slot in place: Args::assign reuses its buffer.
  auto [lock, e] = claim(name, "", now_us(), 0);
  if (e) e->args.assign(args);
}

void Recorder::record(const char* name, const char* cat, double ts_us,
                      double dur_us, Args&& args) {
  auto [lock, e] = claim(name, cat, ts_us, dur_us);
  if (e) e->args = std::move(args);
}

std::vector<Event> Recorder::events() const {
  std::vector<Event> out;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    out.insert(out.end(), s.slots.begin(),
               s.slots.begin() + static_cast<ptrdiff_t>(s.n));
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  const size_t cap = capacity_.load(std::memory_order_relaxed);
  if (cap != kUnbounded && out.size() > cap)
    out.erase(out.begin(), out.end() - static_cast<ptrdiff_t>(cap));
  return out;
}

void Recorder::dump_jsonl(std::ostream& os) const {
  std::string line;
  for (const Event& e : events()) {
    line.assign("{\"seq\": ");
    line += std::to_string(e.seq);
    line += ", \"ms\": ";
    append_fixed3(line, e.ts_us / 1000);
    line += ", \"tid\": ";
    line += std::to_string(e.tid);
    line += ", \"kind\": ";
    json_quote_append(line, e.name);
    if (!e.args.empty()) {
      line += ", \"detail\": ";
      e.args.append_json(line);
    }
    line += "}\n";
    os << line;
  }
}

bool Recorder::dump_file(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f.good()) return false;
  dump_jsonl(f);
  return f.good();
}

}  // namespace deepmc::obs
