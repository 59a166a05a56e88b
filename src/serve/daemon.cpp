#include "serve/daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "support/flags.h"

namespace deepmc::serve {

namespace {

// Session i's obs tid is kSessionTid0 + i, past the tids of pool workers
// (worker i is i + 1, and a pool has at most kMaxJobs workers).
constexpr uint64_t kSessionTid0 = support::kMaxJobs + 1;

// Lazily registered, like the serve.* request metrics in service.cpp, so
// binaries that never daemonize keep their metrics goldens unchanged.
obs::Counter& shed_total() {
  static obs::Counter c = obs::registry().counter(
      "serve.shed_total", obs::Volatility::kVolatile,
      "connections rejected with an overloaded response");
  return c;
}
obs::Counter& sessions_total() {
  static obs::Counter c = obs::registry().counter(
      "serve.sessions_total", obs::Volatility::kVolatile,
      "connections served to completion by a session thread");
  return c;
}
obs::Counter& accept_retries_total() {
  static obs::Counter c = obs::registry().counter(
      "serve.accept_retries_total", obs::Volatility::kVolatile,
      "transient accept() failures absorbed with backoff");
  return c;
}
obs::Gauge& inflight_gauge() {
  static obs::Gauge g = obs::registry().gauge(
      "serve.inflight", obs::Volatility::kVolatile,
      "sessions being served right now");
  return g;
}

ResponseFrame overloaded_response() {
  ResponseFrame resp;
  resp.status = kStatusOverloaded;
  resp.meta = "{\"error\": \"overloaded: no session capacity\", "
              "\"retryable\": true}";
  return resp;
}

bool set_nonblock(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// A non-blocking socket listening on `addr`, or -1 with the error, which
/// names `what`, in *err.
int open_listener(const sockaddr* addr, socklen_t len, const std::string& what,
                  std::string* err) {
  const int fd = ::socket(addr->sa_family, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err) *err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  // Lets a restarted daemon rebind a TCP port still in TIME_WAIT.
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, addr, len) < 0 || ::listen(fd, 64) < 0 || !set_nonblock(fd)) {
    if (err) *err = "bind/listen " + what + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

// Signal -> drain plumbing. A handler may only touch lock-free state, so
// it sets a flag and pokes the daemon's wake pipe; run() does the rest.
std::atomic<int> g_signal_wake_fd{-1};
std::atomic<bool> g_signal_drain{false};

extern "C" void on_drain_signal(int) {
  g_signal_drain.store(true, std::memory_order_release);
  const int fd = g_signal_wake_fd.load(std::memory_order_acquire);
  if (fd >= 0) {
    const char b = 1;
    [[maybe_unused]] const ssize_t rc = ::write(fd, &b, 1);
  }
}

}  // namespace

ServeDaemon::ServeDaemon(AnalysisService& service, DaemonOptions opts)
    : service_(service), opts_(opts) {
  if (opts_.max_sessions == 0) opts_.max_sessions = 1;
  if (opts_.accept_queue == 0) opts_.accept_queue = 1;
  int pipefd[2] = {-1, -1};
  if (::pipe(pipefd) == 0) {
    wake_r_ = pipefd[0];
    wake_w_ = pipefd[1];
    set_nonblock(wake_r_);
    set_nonblock(wake_w_);
  }
}

ServeDaemon::~ServeDaemon() {
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  for (const int fd : listen_fds_) ::close(fd);
  for (const std::string& path : unix_paths_) ::unlink(path.c_str());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int fd : queue_) ::close(fd);
    queue_.clear();
  }
  if (g_signal_wake_fd.load(std::memory_order_acquire) == wake_w_)
    g_signal_wake_fd.store(-1, std::memory_order_release);
  if (wake_r_ >= 0) ::close(wake_r_);
  if (wake_w_ >= 0) ::close(wake_w_);
}

bool ServeDaemon::listen_unix(const std::string& path, std::string* err) {
  const std::optional<sockaddr_un> addr = unix_endpoint(path, err);
  if (!addr) return false;
  ::unlink(path.c_str());
  const int fd = open_listener(reinterpret_cast<const sockaddr*>(&*addr),
                               sizeof *addr, path, err);
  if (fd < 0) return false;
  listen_fds_.push_back(fd);
  unix_paths_.push_back(path);
  std::printf("deepmc-serve: listening on %s\n", path.c_str());
  std::fflush(stdout);
  return true;
}

bool ServeDaemon::listen_tcp(const std::string& spec, std::string* err) {
  const std::optional<TcpEndpoint> ep = parse_tcp_endpoint(spec, err);
  if (!ep) return false;
  const int fd = open_listener(reinterpret_cast<const sockaddr*>(&ep->addr),
                               sizeof ep->addr, spec, err);
  if (fd < 0) return false;
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) == 0)
    tcp_port_ = ntohs(bound.sin_port);
  listen_fds_.push_back(fd);
  std::printf("deepmc-serve: listening on %s:%u\n", ep->host.c_str(),
              static_cast<unsigned>(tcp_port_));
  std::fflush(stdout);
  return true;
}

void ServeDaemon::arm_signal_drain() {
  g_signal_wake_fd.store(wake_w_, std::memory_order_release);
  std::signal(SIGTERM, on_drain_signal);
  std::signal(SIGINT, on_drain_signal);
}

void ServeDaemon::publish_inflight() {
  size_t n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    n = inflight_;
  }
  inflight_gauge().set(n);
}

void ServeDaemon::worker_loop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !queue_.empty() || draining_; });
      if (queue_.empty()) return;  // draining, nothing left to serve
      fd = queue_.front();
      queue_.pop_front();
      active_.insert(fd);
      ++inflight_;
      ++stats_.sessions;
    }
    publish_inflight();
    sessions_total().inc();
    const int rc = serve_stream(
        service_, fd, fd,
        {.io_timeout_ms = opts_.io_timeout_ms,
         .default_deadline_ms = opts_.request_timeout_ms});
    {
      std::lock_guard<std::mutex> lock(mu_);
      active_.erase(fd);
      --inflight_;
    }
    publish_inflight();
    ::close(fd);
    if (rc == 1) begin_drain("shutdown");
  }
}

void ServeDaemon::admit_or_shed(int conn) {
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.accepted;
    if (draining_ || queue_.size() >= opts_.accept_queue) {
      shed = true;
      ++stats_.shed;
    } else {
      queue_.push_back(conn);
    }
  }
  if (!shed) {
    cv_.notify_one();
    return;
  }
  // Unsolicited response: the client's read after (or during) its request
  // write sees status 2 and backs off. The frame is tiny, so this write
  // from the accept thread cannot block on a sane socket buffer.
  shed_total().inc();
  obs::flight().record("serve.shed");
  write_response(conn, overloaded_response());
  ::close(conn);
}

bool ServeDaemon::handle_accept_errno(int err) {
  switch (err) {
    // Per-connection transients: the connection died between poll and
    // accept, or a signal landed. Nothing is wrong with the listener.
    case EINTR:
    case ECONNABORTED:
    case EAGAIN:
#if EAGAIN != EWOULDBLOCK
    case EWOULDBLOCK:
#endif
      return true;
    // Resource exhaustion (fd or buffer pressure): the listener is fine
    // but accepting now would keep failing. Back off with a capped
    // doubling delay so a storm cannot spin the accept thread, and count
    // every retry so operators can see the pressure.
    case EMFILE:
    case ENFILE:
    case ENOBUFS:
    case ENOMEM: {
      accept_backoff_ms_ =
          accept_backoff_ms_ == 0
              ? 1
              : (accept_backoff_ms_ >= 100 ? 100 : accept_backoff_ms_ * 2);
      accept_retries_total().inc();
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.accept_retries;
      }
      struct timespec ts {
        static_cast<time_t>(accept_backoff_ms_ / 1000),
        static_cast<long>((accept_backoff_ms_ % 1000) * 1000000)
      };
      ::nanosleep(&ts, nullptr);
      return true;
    }
    default:
      std::fprintf(stderr, "deepmc serve: accept: %s\n", std::strerror(err));
      return false;
  }
}

int ServeDaemon::run() {
  std::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill us
  workers_.reserve(opts_.max_sessions);
  for (size_t i = 0; i < opts_.max_sessions; ++i)
    workers_.emplace_back([this, i] {
      // Each session gets a trace lane and busy-time counter of its own.
      obs::set_thread_label(static_cast<uint32_t>(kSessionTid0 + i),
                            "session-" + std::to_string(i));
      worker_loop();
    });

  std::vector<pollfd> pfds;
  pfds.push_back({wake_r_, POLLIN, 0});
  for (const int fd : listen_fds_) pfds.push_back({fd, POLLIN, 0});

  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (draining_) break;
    }
    for (pollfd& p : pfds) p.revents = 0;
    const int pr = ::poll(pfds.data(), pfds.size(), -1);
    if (pr < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "deepmc serve: poll: %s\n", std::strerror(errno));
      begin_drain("poll-error");
      {
        std::lock_guard<std::mutex> lock(mu_);
        rc_ = 65;
      }
      break;
    }
    if (pfds[0].revents & POLLIN) {
      char buf[64];
      while (::read(wake_r_, buf, sizeof buf) > 0) {
      }
      if (g_signal_drain.exchange(false, std::memory_order_acq_rel))
        begin_drain("signal");
      continue;  // re-check draining_ at the top
    }
    for (size_t i = 1; i < pfds.size(); ++i) {
      if (!(pfds[i].revents & POLLIN)) continue;
      // Drain this listener's backlog completely: with several clients
      // racing one poll wakeup, stopping at the first accept would leave
      // connections pending until the next event.
      while (true) {
        const int conn = ::accept(pfds[i].fd, nullptr, nullptr);
        if (conn < 0) {
          const int err = errno;
          if (err == EAGAIN || err == EWOULDBLOCK) break;  // backlog empty
          if (!handle_accept_errno(err)) {
            begin_drain("accept-error");
            std::lock_guard<std::mutex> lock(mu_);
            rc_ = 65;
          }
          break;
        }
        accept_backoff_ms_ = 0;
        admit_or_shed(conn);
      }
    }
  }

  for (std::thread& t : workers_) t.join();
  workers_.clear();
  for (const int fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
  for (const std::string& path : unix_paths_) ::unlink(path.c_str());
  unix_paths_.clear();
  inflight_gauge().set(0);
  std::lock_guard<std::mutex> lock(mu_);
  return rc_;
}

void ServeDaemon::begin_drain(const char* reason) {
  std::deque<int> to_shed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) return;
    draining_ = true;
    to_shed.swap(queue_);
    stats_.shed += to_shed.size();
    // Half-close live sessions: the blocked (or polling) frame read sees
    // EOF and the session ends cleanly after its in-flight response.
    for (const int fd : active_) ::shutdown(fd, SHUT_RD);
  }
  cv_.notify_all();
  obs::flight().record("serve.drain", {{"reason", reason}});
  for (const int fd : to_shed) {
    shed_total().inc();
    write_response(fd, overloaded_response());
    ::close(fd);
  }
  if (wake_w_ >= 0) {
    const char b = 1;
    [[maybe_unused]] const ssize_t rc = ::write(wake_w_, &b, 1);
  }
}

ServeDaemon::Stats ServeDaemon::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace deepmc::serve
