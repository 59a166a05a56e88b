// Multi-client daemon front end for `deepmc serve` (docs/SERVER.md
// "Operating under load").
//
// Topology: one accept thread (the caller of run()) polls every listener
// plus a self-wake pipe; accepted connections go into a bounded queue
// drained by a fixed pool of session threads, each running serve_stream
// over one connection at a time. The AnalysisService behind them is
// shared — its thread pool, disk cache, and stats are all safe under
// concurrent sessions — so responses stay byte-identical to one-shot
// runs no matter how many clients are connected.
//
// Admission control: when the queue is full (every session slot busy and
// `accept_queue` connections already waiting), new connections are shed
// with an unsolicited `DMRS` status-2 "overloaded" response and closed.
// Shedding is the whole point — a burst beyond capacity degrades into
// retries, never into unbounded queueing or a wedged daemon.
//
// Drain: begin_drain() (shutdown op, SIGTERM/SIGINT via
// arm_signal_drain, or a fatal accept error) closes the listeners, sheds
// everything still queued, half-closes live connections (SHUT_RD — the
// in-flight request still gets its response), and joins the session
// threads. run() then returns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace deepmc::serve {

class AnalysisService;

/// The millisecond fields are at most support::kMaxMillis (the CLI
/// rejects larger values), which keeps their deadlines in clock range.
struct DaemonOptions {
  size_t max_sessions = 4;   ///< concurrent session threads (min 1)
  size_t accept_queue = 16;  ///< accepted-but-unserved bound (min 1)
  /// Default per-request deadline applied when the client sends none
  /// (and the floor when it does — the daemon never waits longer than
  /// its own bound). 0 = no daemon-side deadline.
  uint64_t request_timeout_ms = 0;
  /// Per-frame read bound: an idle connection must start its next frame
  /// within this window, and a started frame must finish within it — a
  /// slowloris drip-feed cannot hold a session slot past one window per
  /// frame. 0 = block forever (the pre-daemon behavior).
  uint64_t io_timeout_ms = 30000;
};

class ServeDaemon {
 public:
  ServeDaemon(AnalysisService& service, DaemonOptions opts);
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Bind a listener. Call any combination before run(); each prints the
  /// "deepmc-serve: listening on ..." line scripts poll for. On failure
  /// returns false with a message in *err.
  bool listen_unix(const std::string& path, std::string* err);
  /// `spec` is "host:port" (IPv4 dotted quad) or bare "port"
  /// (= 127.0.0.1). Port 0 binds an ephemeral port; read it back with
  /// tcp_port().
  bool listen_tcp(const std::string& spec, std::string* err);
  [[nodiscard]] uint16_t tcp_port() const { return tcp_port_; }

  /// Route SIGTERM/SIGINT into begin_drain("signal"). Process-global;
  /// only the CLI daemon path calls this.
  void arm_signal_drain();

  /// Serve until drained. Returns 0 on a clean drain (shutdown op or
  /// signal), 65 after a fatal listener error.
  int run();

  /// Thread-safe; idempotent. Stops accepting, sheds the queue,
  /// half-closes live sessions, and wakes run() to finish.
  void begin_drain(const char* reason);

  struct Stats {
    uint64_t accepted = 0;        ///< connections accepted
    uint64_t shed = 0;            ///< connections rejected as overloaded
    uint64_t accept_retries = 0;  ///< transient accept() failures retried
    uint64_t sessions = 0;        ///< sessions actually served
  };
  [[nodiscard]] Stats stats() const;

 private:
  void worker_loop();
  void admit_or_shed(int conn);
  /// Transient accept() errno handling: returns true to keep accepting
  /// (possibly after a capped backoff sleep), false on a hard error.
  bool handle_accept_errno(int err);
  void publish_inflight();

  AnalysisService& service_;
  DaemonOptions opts_;
  std::vector<int> listen_fds_;
  std::vector<std::string> unix_paths_;  ///< unlinked on teardown
  uint16_t tcp_port_ = 0;
  int wake_r_ = -1;
  int wake_w_ = -1;
  uint64_t accept_backoff_ms_ = 0;  ///< current EMFILE-class backoff

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int> queue_;   ///< accepted fds awaiting a session thread
  std::set<int> active_;    ///< fds currently inside serve_stream
  size_t inflight_ = 0;
  bool draining_ = false;
  int rc_ = 0;
  Stats stats_;
  std::vector<std::thread> workers_;
};

}  // namespace deepmc::serve
