// serve-edits: the IDE/CI daemon. An in-process serve::ServeDaemon on a
// Unix socket with the CLI defaults (driver jobs 0, 4 sessions) and a
// fresh cache directory, fed a seeded request mix over one stream:
// in every block of 20 requests, in a seeded order, 14 unchanged
// resubmissions (unit-cache hits), 5 one-function edits made with
// gen::touch_function (dirty-cone recomputes and cache writes) and one
// brand-new module (cold). Every module has eight roots, each a chain of
// 5-8 diamonds (2^5..2^8 paths); successive edits touch roots of 5, 6, 7,
// 8, 5, ... diamonds in turn. So any stretch of the stream costs the same
// per request whatever the seed, and only which modules are hit differs.
//
// Each of kRounds rounds replays the same stream on a fresh daemon and
// cache. Phases: an open loop — seeded Poisson arrivals at one fixed
// absolute rate over min(4, nproc) connections, each request timed from
// when it was due — then a closed loop at one connection (one editor
// sending its next request as soon as the last returns: the bounded
// throughput, counted per second of process CPU time)
// and, in the traced run, one at min(4, nproc) connections (capacity and
// session scaling). Every response is checked byte for byte against a
// fresh one-shot AnalysisDriver report of the same text, computed after
// the timed phases.
#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis_driver.h"
#include "gen/generator.h"
#include "layers.h"
#include "serve/cache.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/hash.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "spans.h"
#include "support/rng.h"
#include "support/str.h"
#include "workloads.h"

namespace perfbench {

using namespace deepmc;

namespace {

constexpr size_t kBaseModules = 16;
/// Every module's roots, in order, have these diamond counts, so modules
/// cost the same whatever the seed. gen::touch_function edits function
/// `salt % 8`, and the stream's salt counts edits, so successive edits
/// cycle through these counts.
constexpr std::array<uint64_t, 8> kDiamonds = {5, 6, 7, 8, 5, 6, 7, 8};
/// One block of the stream, shuffled per block: 14 resubmissions, 5
/// edits, 1 new module.
constexpr size_t kBlock = 20;
constexpr size_t kBlockEdits = 5;
constexpr size_t kBlockNew = 1;
/// The closed loop's throughput is read over windows of this many
/// requests that start at a block boundary, so every window holds the
/// same mix and five whole cycles of edited root sizes.
constexpr size_t kWindow = 8 * kBlock;
/// Open-loop arrival rate, requests/s: about half the closed-loop
/// capacity at 4 connections measured at the seed on 4 hardware threads
/// (README.md "Baseline").
constexpr double kOpenRate = 450;
/// Fresh daemons per run; setup_s is the median of their set-ups. Nine
/// rounds (shorter loops) spread no less than five on a shared 4-vCPU
/// machine, and peak RSS spread more.
constexpr size_t kRounds = 5;
constexpr double kOpenShare = 0.3;    ///< of --seconds, over all rounds
constexpr double kClosedShare = 0.55; ///< of --seconds, over all rounds
constexpr size_t kPings = 200;
constexpr size_t kCachePayloads = 200;
/// The generator has fallen behind its own schedule when its p99
/// lateness exceeds this many mean inter-arrival gaps; such a run
/// measured the generator, not the daemon.
constexpr double kGeneratorLateGaps = 10;

enum class Kind : uint8_t { kResubmit, kEdit, kNew };

struct Request {
  Kind kind = Kind::kResubmit;
  std::string name;
  std::shared_ptr<const std::string> text;
};

/// One root: a persistent record driven through a chain of diamonds;
/// every store writes an integer constant so touch_function can edit it.
std::string root_text(uint64_t uid, size_t root, uint64_t diamonds, Rng& rng) {
  std::string out = strformat("define void @r%zu() {\nentry:\n", root);
  out += "  %r = pm.alloc %rec\n  %f = gep %r, 0\n";
  size_t line = 1;
  out += strformat("  store i64 %llu, %%f !loc(\"edits_%llu.c\", %zu)\n",
                   static_cast<unsigned long long>(rng.below(1000) + 1),
                   static_cast<unsigned long long>(uid), line++);
  out += "  br label %d0\n";
  for (uint64_t d = 0; d < diamonds; ++d) {
    out += strformat("d%llu:\n  %%v%llu = load %%f\n  %%c%llu = lt %%v%llu, 5\n",
                     (unsigned long long)d, (unsigned long long)d,
                     (unsigned long long)d, (unsigned long long)d);
    out += strformat("  br %%c%llu, label %%d%llua, label %%d%llub\n",
                     (unsigned long long)d, (unsigned long long)d,
                     (unsigned long long)d);
    for (const char arm : {'a', 'b'}) {
      out += strformat("d%llu%c:\n", (unsigned long long)d, arm);
      for (int s = 0; s < 2; ++s) {
        out += strformat(
            "  store i64 %llu, %%f !loc(\"edits_%llu.c\", %zu)\n",
            static_cast<unsigned long long>(rng.below(1000) + 1),
            static_cast<unsigned long long>(uid), 100 * root + line++);
        out += "  pm.flush %f, 8\n";
      }
      out += strformat("  br label %%d%llue\n", (unsigned long long)d);
    }
    out += strformat("d%llue:\n", (unsigned long long)d);
    out += d + 1 < diamonds
               ? strformat("  br label %%d%llu\n", (unsigned long long)(d + 1))
               : std::string("  br label %done\n");
  }
  out += "done:\n  pm.flush %f, 8\n  pm.fence\n  ret\n}\n\n";
  return out;
}

std::string module_text(uint64_t uid, Rng& rng) {
  std::string out = strformat("module \"edits_%llu\"\nstruct %%rec { i64, i64 }\n\n",
                              static_cast<unsigned long long>(uid));
  for (size_t r = 0; r < kDiamonds.size(); ++r)
    out += root_text(uid, r, kDiamonds[r], rng);
  return out;
}

/// The seeded request stream. Entry i depends only on the seed and on
/// the entries before it, so every run with one seed sends the same
/// requests in the same order whatever the timing, and a second Stream
/// with the seed replays them for verification. Entries are made on
/// demand and handed out once, so only texts still in use stay in memory.
class Stream {
 public:
  explicit Stream(uint64_t seed) : rng_(seed ^ 0x5e12e0ed17ull) {
    for (size_t i = 0; i < kBaseModules; ++i) add_module();
  }

  /// The next entry; its stream position goes to *index. Thread-safe.
  Request next(size_t* index) {
    std::lock_guard<std::mutex> lock(mu_);
    *index = made_++;
    return make();
  }

  /// The base modules, submitted once at set-up to warm the cache.
  std::vector<Request> base() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Request> out;
    for (size_t m = 0; m < kBaseModules; ++m)
      out.push_back({Kind::kNew, names_[m], texts_[m]});
    return out;
  }

 private:
  void add_module() {
    const uint64_t uid = rng_.next() >> 24;
    names_.push_back(strformat("edits/m%zu", names_.size()));
    texts_.push_back(std::make_shared<const std::string>(module_text(uid, rng_)));
  }

  Request make() {
    if (block_.empty()) {
      block_.assign(kBlock, Kind::kResubmit);
      std::fill_n(block_.begin(), kBlockEdits, Kind::kEdit);
      std::fill_n(block_.begin() + kBlockEdits, kBlockNew, Kind::kNew);
      for (size_t i = block_.size() - 1; i > 0; --i)
        std::swap(block_[i], block_[rng_.below(i + 1)]);
    }
    const Kind kind = block_.back();
    block_.pop_back();
    if (kind == Kind::kNew) {
      add_module();
      return {kind, names_.back(), texts_.back()};
    }
    const size_t m = rng_.below(names_.size());
    if (kind == Kind::kEdit)
      texts_[m] = std::make_shared<const std::string>(
          gen::touch_function(*texts_[m], salt_++));
    return {kind, names_[m], texts_[m]};
  }

  std::mutex mu_;
  Rng rng_;
  uint64_t salt_ = 0;
  size_t made_ = 0;
  std::vector<Kind> block_;  ///< the rest of the current block, drawn from the back
  std::vector<std::string> names_;
  std::vector<std::shared_ptr<const std::string>> texts_;
};

serve::RequestFrame frame_for(const Request& r) {
  serve::RequestFrame f;
  f.header = "{\"op\": \"analyze\", \"name\": " + core::json_quote(r.name) +
             ", \"format\": \"json\"}";
  f.body = *r.text;
  return f;
}

/// One answered (or failed) request, as the client saw it.
struct Sample {
  size_t index = 0;       ///< stream position
  double due = 0;         ///< open loop: when it was due (s); closed: sent
  double sent = 0;
  double done = 0;
  double cpu_done = 0;    ///< closed loop: process CPU time at `done` (s)
  bool ok = false;        ///< transport ok and status 0
  bool deadline = false;  ///< meta deadline_expired
  std::string cache;      ///< meta cache field
  std::string body_hash;  ///< of the response body
};

/// The daemon, its service and its socket, torn down in order.
class Daemon {
 public:
  Daemon(const std::string& dir, const std::string& sock) : sock_(sock) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    serve::ServeOptions sopts;  // CLI defaults: driver jobs 0
    sopts.cache_dir = dir;
    service_ = std::make_unique<serve::AnalysisService>(std::move(sopts));
    daemon_ = std::make_unique<serve::ServeDaemon>(*service_,
                                                   serve::DaemonOptions{});
    std::string err;
    std::filesystem::remove(sock_);
    if (!daemon_->listen_unix(sock_, &err))
      throw std::runtime_error("serve listen: " + err);
    runner_ = std::thread([this] { daemon_->run(); });
  }
  ~Daemon() {
    daemon_->begin_drain("benchmark done");
    runner_.join();
    std::filesystem::remove(sock_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const { return sock_; }
  serve::AnalysisService& service() { return *service_; }
  serve::ServeDaemon& daemon() { return *daemon_; }

 private:
  std::string sock_;
  std::unique_ptr<serve::AnalysisService> service_;
  std::unique_ptr<serve::ServeDaemon> daemon_;
  std::thread runner_;
};

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

serve::RetryPolicy no_retries() {
  serve::RetryPolicy p;
  p.max_retries = 0;  // a refused request counts as failed, not hidden
  return p;
}

Sample call(serve::ServeClient& client, size_t index, const Request& r,
            double due, int64_t parent_span) {
  Sample s;
  s.index = index;
  s.due = due;
  const serve::RequestFrame req = frame_for(r);
  serve::ResponseFrame resp;
  std::string err;
  s.sent = now_s();
  bool transport = false;
  {
    Span span("serve", "serve.request", parent_span);
    transport = client.call(req, &resp, &err);
  }
  s.done = now_s();
  s.ok = transport && resp.status == serve::kStatusOk;
  if (transport) {
    s.cache = serve::json_string_field(resp.meta, "cache").value_or("");
    s.deadline =
        serve::json_bool_field(resp.meta, "deadline_expired").value_or(false);
    s.body_hash = serve::hash_bytes(resp.body);
  }
  return s;
}

/// The open-loop schedule, made at set-up: Poisson due times at
/// kOpenRate over the phase, and the stream entry each one sends.
struct Schedule {
  std::vector<double> offsets;  ///< due times from the phase start (s)
  std::vector<Request> requests;
};

Schedule make_schedule(Stream& stream, uint64_t seed, double secs) {
  Schedule out;
  Rng arrivals(seed ^ 0xa11e5ull);
  for (double t = 0;;) {
    t += -std::log(1.0 - arrivals.uniform()) / kOpenRate;
    if (t >= secs) break;
    out.offsets.push_back(t);
    size_t index = 0;
    out.requests.push_back(stream.next(&index));
  }
  return out;
}

struct OpenLoop {
  std::vector<Sample> samples;  ///< by stream position
  std::vector<double> late_ms;  ///< generator lateness per request
};

/// Dispatch the schedule to `conns` connections through a FIFO of due
/// requests; each request is timed from when it was due.
OpenLoop open_loop(Schedule& sched, const std::string& sock, size_t conns) {
  const size_t n = sched.offsets.size();
  OpenLoop out;
  out.samples.resize(n);
  out.late_ms.resize(n);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> due;  // guarded by mu
  bool closed = false;     // guarded by mu

  Span phase("bench", "open-loop");
  const int64_t phase_id = phase.id();
  const double t0 = now_s() + 0.01;
  std::vector<std::thread> workers;
  for (size_t c = 0; c < conns; ++c)
    workers.emplace_back([&] {
      serve::ServeClient client(sock, no_retries());
      while (true) {
        size_t k = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return closed || !due.empty(); });
          if (due.empty()) return;
          k = due.front();
          due.pop_front();
        }
        const Request r = std::move(sched.requests[k]);  // frees the text when sent
        out.samples[k] = call(client, k, r, t0 + sched.offsets[k], phase_id);
      }
    });
  for (size_t k = 0; k < n; ++k) {
    const double when = t0 + sched.offsets[k];
    const double wait = when - now_s();
    if (wait > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    out.late_ms[k] = (now_s() - when) * 1e3;
    {
      std::lock_guard<std::mutex> lock(mu);
      due.push_back(k);
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& t : workers) t.join();
  return out;
}

struct ClosedLoop {
  std::vector<Sample> samples;
  double seconds = 0;
  double cpu_s = 0;  ///< process CPU over the phase, client threads included
  [[nodiscard]] double rps() const {
    return seconds > 0 ? static_cast<double>(samples.size()) / seconds : 0;
  }
  [[nodiscard]] double cpu_us_per_request() const {
    return samples.empty() ? 0 : cpu_s * 1e6 / static_cast<double>(samples.size());
  }
  /// Requests per second of process CPU time over each window of
  /// kWindow requests starting at a block boundary. Meaningful at one
  /// connection, where samples are in stream order.
  [[nodiscard]] std::vector<double> window_cpu_rps() const {
    std::vector<double> out;
    for (size_t j = 1; j + kWindow <= samples.size();) {
      if (samples[j].index % kBlock != 0) {
        ++j;
        continue;
      }
      const double cpu = samples[j + kWindow - 1].cpu_done - samples[j - 1].cpu_done;
      if (cpu > 0) out.push_back(static_cast<double>(kWindow) / cpu);
      j += kWindow;
    }
    return out;
  }
};

/// Every connection sends its next stream entry as soon as the last one
/// returns, until `secs` have passed.
ClosedLoop closed_loop(Stream& stream, const std::string& sock, size_t conns,
                       double secs) {
  ClosedLoop out;
  std::mutex mu;
  Span phase("bench", "closed-loop");
  const int64_t phase_id = phase.id();
  const ProcUsage u0 = proc_usage();
  const double t0 = now_s();
  const double stop = t0 + secs;
  std::vector<std::thread> workers;
  for (size_t c = 0; c < conns; ++c)
    workers.emplace_back([&] {
      serve::ServeClient client(sock, no_retries());
      while (now_s() < stop) {
        size_t i = 0;
        const Request r = stream.next(&i);
        Sample s = call(client, i, r, now_s(), phase_id);
        s.cpu_done = process_cpu_s();
        std::lock_guard<std::mutex> lock(mu);
        out.samples.push_back(std::move(s));
      }
    });
  for (std::thread& t : workers) t.join();
  out.seconds = now_s() - t0;
  out.cpu_s = (proc_usage() - u0).cpu_s();
  return out;
}

/// One round: set-up time, the two phases on one fresh daemon, and the
/// daemon's own counters.
struct Round {
  double setup_s = 0;
  OpenLoop open;
  ClosedLoop closed;  ///< one connection
  ClosedLoop many;    ///< min(4, nproc) connections, traced run only
  serve::AnalysisService::Stats stats;
  uint64_t shed = 0;
  std::vector<const Sample*> by_index;  ///< samples by stream position
};

/// Ping round trips: framing plus dispatch.
std::vector<double> pings(const std::string& sock, Result& out) {
  std::vector<double> ms;
  serve::ServeClient client(sock, no_retries());
  serve::RequestFrame ping;
  ping.header = "{\"op\": \"ping\"}";
  for (size_t i = 0; i < kPings; ++i) {
    serve::ResponseFrame resp;
    std::string err;
    const double t0 = now_s();
    const bool ok = client.call(ping, &resp, &err);
    ms.push_back((now_s() - t0) * 1e3);
    if (!ok) {
      out.attempt();
      out.fail("ping failed: " + err);
      break;
    }
  }
  return ms;
}

std::string key_of(const std::string& name, const std::string& text) {
  return serve::Hasher().update(name).update(std::string(1, '\0')).update(text).hex();
}

}  // namespace

void run_serve_edits(const Config& cfg, Result& out) {
  const size_t conns = std::min<size_t>(4, cfg.nproc);
  const std::string sock =
      cfg.work_dir + "/serve_" + std::to_string(::getpid()) + ".sock";
  const std::string cache_dir = cfg.work_dir + "/serve_cache";
  const double open_secs = cfg.seconds * kOpenShare / kRounds;
  const double closed_secs = cfg.seconds * kClosedShare / kRounds;

  // Every round replays the same seeded stream on a fresh daemon and
  // cache: set-up (stream and open-loop schedule, daemon start, cache
  // warm-up with the base modules), the open loop, then the closed loop.
  // Figures are medians over rounds (latencies pool every round).
  std::vector<Round> rounds(kRounds);
  std::vector<double> ping_ms;
  const ProcUsage u0 = proc_usage();
  for (size_t k = 0; k < rounds.size(); ++k) {
    {
      Round& round = rounds[k];
      const double t0 = now_s();
      Stream stream(cfg.seed);
      Schedule sched = make_schedule(stream, cfg.seed, open_secs);
      Daemon daemon(cache_dir, sock);
      {
        serve::ServeClient warm(daemon.socket(), no_retries());
        for (const Request& r : stream.base()) {
          out.attempt();
          if (!call(warm, 0, r, now_s(), -1).ok)
            out.fail("warm-up request for " + r.name + " failed");
        }
      }
      round.setup_s = now_s() - t0;
      if (k == 0) ping_ms = pings(daemon.socket(), out);

      Tracer::set_enabled(cfg.trace);
      round.open = open_loop(sched, daemon.socket(), conns);
      round.closed = closed_loop(stream, daemon.socket(), 1, closed_secs);
      if (cfg.trace)
        round.many = closed_loop(stream, daemon.socket(), conns, closed_secs);
      Tracer::set_enabled(false);
      round.stats = daemon.service().stats();
      round.shed = daemon.daemon().stats().shed;
    }
    // Untimed, between rounds: drop the round's cache files and hand freed
    // heap back, so every round starts from the same disk and memory state.
    // Otherwise set-up would pay for deleting the last round's files, and
    // peak RSS would creep up by 0-4 MiB a round, depending on which malloc
    // arenas the round's threads used.
    std::filesystem::remove_all(cache_dir);
    malloc_trim(0);
  }
  const ProcUsage phases = proc_usage() - u0;

  // Samples by stream position, per round.
  size_t longest = 0;
  for (Round& round : rounds) {
    auto index_all = [&](const std::vector<Sample>& samples) {
      for (const Sample& s : samples) {
        if (s.index >= round.by_index.size()) round.by_index.resize(s.index + 1);
        round.by_index[s.index] = &s;
      }
    };
    index_all(round.open.samples);
    index_all(round.closed.samples);
    index_all(round.many.samples);
    longest = std::max(longest, round.by_index.size());
  }

  // Replay the stream: its fingerprint, every response checked against a
  // fresh one-shot report of the same text, and — traced — Report::json
  // timed on those reports and the static layers called directly on each
  // distinct text that missed the unit cache in the open loop.
  Stream replay(cfg.seed);
  serve::Hasher schedule_hash, stream_hash;
  std::map<std::string, std::string> expected;  // key_of -> body hash
  std::vector<std::string> payloads;            // for the DiskCache probe
  StaticTotals st;
  uint64_t timeouts = 0;
  Tracer::set_enabled(cfg.trace);
  const size_t open_n = rounds.front().open.samples.size();
  for (size_t i = 0; i < longest; ++i) {
    size_t index = 0;
    const Request r = replay.next(&index);
    if (i < open_n) schedule_hash.update(r.name).update(*r.text);
    if (i < rounds.front().by_index.size())
      stream_hash.update(r.name).update(*r.text);
    const std::string key = key_of(r.name, *r.text);
    auto it = expected.find(key);
    if (it == expected.end()) {
      core::AnalysisDriver driver{core::DriverOptions{}};
      const core::Report report =
          driver.run({core::make_source_unit(r.name, *r.text)});
      std::string body;
      {
        Span outer("bench", "render");
        Span span("core", "core.render");
        body = report.json(false);
      }
      it = expected.emplace(key, serve::hash_bytes(body)).first;
      if (cfg.trace && payloads.size() < kCachePayloads)
        payloads.push_back(std::move(body));
      if (cfg.trace && i < open_n && r.kind != Kind::kResubmit) {
        Span pass("bench", "static-pass");
        const StaticOutcome so =
            static_pass(*r.text, core::PersistencyModel::kStrict, st);
        if (!so.module) out.fail(r.name + ": static pass: " + so.error);
      }
    }
    for (size_t k = 0; k < rounds.size(); ++k) {
      if (i >= rounds[k].by_index.size()) continue;
      const Sample* s = rounds[k].by_index[i];
      const std::string what = strformat("round %zu request %zu (%s)", k, i,
                                         r.name.c_str());
      out.attempt();
      if (s == nullptr || !s->ok) {
        out.fail(what + " failed or was refused");
        continue;
      }
      if (s->deadline) ++timeouts;
      if (s->body_hash != it->second)
        out.fail(what + " differs from the one-shot report");
    }
  }
  Tracer::set_enabled(false);
  // The open-loop schedule is a function of the seed and --seconds; the
  // closed loop sends as many further entries as the program answers.
  out.fingerprint("open-loop requests(" + std::to_string(open_n) + ")",
                  schedule_hash.hex());
  out.fingerprint("round 0 requests(" +
                      std::to_string(rounds.front().by_index.size()) + ")",
                  stream_hash.hex());
  uint64_t shed = 0;
  serve::AnalysisService::Stats stats;
  for (const Round& round : rounds) {
    shed += round.shed;
    stats.requests += round.stats.requests;
    stats.unit_hits += round.stats.unit_hits;
    stats.unit_misses += round.stats.unit_misses;
    stats.root_hits += round.stats.root_hits;
    stats.root_misses += round.stats.root_misses;
  }
  if (timeouts != 0) out.fail(std::to_string(timeouts) + " request(s) timed out");
  if (shed != 0)
    out.fail(std::to_string(shed) + " connection(s) shed at the fixed rate");

  // Open-loop latency from the due time; generator honesty first.
  std::vector<double> lat_ms, wait_ms, hit_ms, warm_ms, cold_ms, late_ms,
      setup_s, capacity, cpu_rps, cpu_us, capacity_many;
  uint64_t missed = 0;
  for (const Round& round : rounds) {
    for (const Sample& s : round.open.samples) {
      if (!s.ok) {
        ++missed;  // counts as missing any latency limit
        continue;
      }
      lat_ms.push_back((s.done - s.due) * 1e3);
      wait_ms.push_back((s.sent - s.due) * 1e3);
      const double service_ms = (s.done - s.sent) * 1e3;
      if (s.cache == "unit-hit") hit_ms.push_back(service_ms);
      else if (s.cache == "warm") warm_ms.push_back(service_ms);
      else cold_ms.push_back(service_ms);
    }
    late_ms.insert(late_ms.end(), round.open.late_ms.begin(),
                   round.open.late_ms.end());
    setup_s.push_back(round.setup_s);
    capacity.push_back(round.closed.rps());
    for (double rps : round.closed.window_cpu_rps()) cpu_rps.push_back(rps);
    cpu_us.push_back(round.closed.cpu_us_per_request());
    capacity_many.push_back(round.many.rps());
  }
  if (cpu_rps.empty())  // runs too short for one window: whole loops
    for (const Round& round : rounds)
      if (round.closed.cpu_s > 0)
        cpu_rps.push_back(static_cast<double>(round.closed.samples.size()) /
                          round.closed.cpu_s);
  for (uint64_t i = 0; i < missed; ++i) lat_ms.push_back(1e12);
  const double late_p99 = percentile(late_ms, 0.99);
  const double late_limit_ms = kGeneratorLateGaps * 1e3 / kOpenRate;
  if (late_p99 > late_limit_ms)
    out.invalid(strformat("open-loop generator ran %.2f ms late at p99 "
                          "(limit %.2f ms); latencies not reported",
                          late_p99, late_limit_ms));
  const double tail_q = tail_quantile(lat_ms.size());
  out.note(strformat("%zu rounds; open loop: %zu requests at %.0f/s over %zu "
                     "connections, tail percentile with >=10 samples above "
                     "it: p%g; one-connection closed loop requests per "
                     "CPU-second over %zu windows min %.0f median %.0f max "
                     "%.0f, per wall second over rounds min %.0f median %.0f "
                     "max %.0f",
                     rounds.size(), lat_ms.size(), kOpenRate, conns,
                     tail_q * 100, cpu_rps.size(), percentile(cpu_rps, 0),
                     median(cpu_rps),
                     percentile(cpu_rps, 1), percentile(capacity, 0),
                     median(capacity), percentile(capacity, 1)));

  // The bounded throughput divides by process CPU time, not wall time: the
  // one-connection loop keeps about one core busy and hands each request
  // across several threads, so on a shared virtual machine its wall time
  // also counts the host's steal and vCPU wake-ups, which the process is
  // not charged for (README.md "Why CPU-seconds"). Median over windows.
  out.metric("setup_s", median(setup_s), "s");
  out.metric("throughput_per_s", median(cpu_rps), "1/s");
  out.metric("serve.wall_rps", median(capacity), "requests/s");
  out.metric("proc.cpu_us_per_op", median(cpu_us), "us");
  out.metric("serve_p50_ms", percentile(lat_ms, 0.5), "ms");
  out.metric("serve_p99_ms", percentile(lat_ms, 0.99), "ms");
  out.metric("serve.queue_wait_ms", percentile(wait_ms, 0.99), "ms");
  out.metric("serve.generator_late_ms", late_p99, "ms");
  out.metric("serve.ping_ms", median(ping_ms), "ms");
  out.metric("serve.unit_hit_ms", median(hit_ms), "ms");
  out.metric("serve.warm_ms", median(warm_ms), "ms");
  out.metric("serve.cold_ms", median(cold_ms), "ms");
  out.metric("serve.unit_hit_ratio",
             stats.requests ? static_cast<double>(stats.unit_hits) /
                                  static_cast<double>(stats.requests)
                            : 0,
             "ratio");
  const uint64_t roots = stats.root_hits + stats.root_misses;
  out.metric("serve.root_hit_ratio",
             roots ? static_cast<double>(stats.root_hits) /
                         static_cast<double>(roots)
                   : 0,
             "ratio");
  out.metric("serve.dirty_roots_mean",
             stats.unit_misses ? static_cast<double>(stats.root_misses) /
                                     static_cast<double>(stats.unit_misses)
                               : 0,
             "roots");
  out.metric("proc.sys_s", phases.sys_s, "s");
  out.metric("proc.minor_faults", phases.minor_faults, "count");
  out.metric("serve.shed", static_cast<double>(shed), "count");
  out.metric("serve.timeouts", static_cast<double>(timeouts), "count");

  if (!cfg.trace) return;
  out.metric("serve_capacity_rps", median(capacity_many), "requests/s");
  out.metric("serve.session_scaling_x",
             median(capacity) > 0 ? median(capacity_many) / median(capacity) : 0,
             "ratio");

  // DiskCache get/put, called directly on response bodies from the run.
  {
    const std::string dir = cfg.work_dir + "/serve_cache_probe";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    serve::DiskCache cache(dir);
    std::vector<double> put_us, get_us;
    for (size_t i = 0; i < payloads.size(); ++i) {
      const std::string key = serve::hash_bytes(payloads[i] + std::to_string(i));
      double t0 = now_s();
      cache.put(key, payloads[i]);
      put_us.push_back((now_s() - t0) * 1e6);
      t0 = now_s();
      const std::optional<std::string> back = cache.get(key);
      get_us.push_back((now_s() - t0) * 1e6);
      out.attempt();
      if (!back || *back != payloads[i]) out.fail("DiskCache get/put round trip");
    }
    std::filesystem::remove_all(dir);
    out.metric("serve.cache.get_us", median(get_us), "us");
    out.metric("serve.cache.put_us", median(put_us), "us");
  }

  const std::vector<SpanRec> spans = Tracer::take();
  emit_static_metrics(out, spans, st);
  out.metric("core.render_ms", span_ms(spans, "core.render"), "ms");
  emit_self_times(out, spans);
}

}  // namespace perfbench
