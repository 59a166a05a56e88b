#include "serve/client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

namespace deepmc::serve {

int connect_target(const std::string& target, std::string* err) {
  // Only "host:port" with a port of 1-65535 is dialled over TCP: a bare
  // number, port 0 and /tmp/x:1.sock are Unix socket paths.
  std::optional<TcpEndpoint> tcp;
  if (target.find(':') != std::string::npos)
    tcp = parse_tcp_endpoint(target, nullptr);
  if (tcp && tcp->addr.sin_port == 0) tcp.reset();
  std::optional<sockaddr_un> path;
  if (!tcp) {
    path = unix_endpoint(target, err);
    if (!path) return -1;
  }
  const int fd = ::socket(tcp ? AF_INET : AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err) *err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  const int rc =
      tcp ? ::connect(fd, reinterpret_cast<const sockaddr*>(&tcp->addr),
                      sizeof tcp->addr)
          : ::connect(fd, reinterpret_cast<const sockaddr*>(&*path),
                      sizeof *path);
  if (rc < 0) {
    if (err) *err = "connect " + target + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

ServeClient::ServeClient(std::string target, RetryPolicy policy)
    : target_(std::move(target)),
      policy_(policy),
      rng_(std::random_device{}()) {}

ServeClient::~ServeClient() { close(); }

void ServeClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool ServeClient::ensure_connected(std::string* err) {
  if (fd_ >= 0) return true;
  fd_ = connect_target(target_, err);
  if (fd_ < 0) return false;
  ++stats_.reconnects;
  return true;
}

uint64_t ServeClient::next_delay_ms() {
  // Decorrelated jitter: uniform over [base, prev*3], capped. Retrying
  // clients in a storm spread out instead of thundering in lockstep.
  const uint64_t lo = policy_.base_delay_ms == 0 ? 1 : policy_.base_delay_ms;
  const uint64_t hi = prev_delay_ms_ < lo ? lo * 3 : prev_delay_ms_ * 3;
  std::uniform_int_distribution<uint64_t> dist(lo, hi < lo ? lo : hi);
  uint64_t d = dist(rng_);
  if (policy_.max_delay_ms > 0 && d > policy_.max_delay_ms)
    d = policy_.max_delay_ms;
  prev_delay_ms_ = d;
  return d;
}

bool ServeClient::call(const RequestFrame& req, ResponseFrame* resp,
                       std::string* err) {
  // Stable id across every attempt of this one call: a header without an
  // "id" gets one injected so daemon-side spans/flight events can
  // collapse retries of the same logical request.
  RequestFrame framed = req;
  if (!json_string_field(framed.header, "id")) {
    const std::string field = "\"id\": \"c-" + std::to_string(::getpid()) +
                              "-" + std::to_string(++id_seq_) + "\"";
    std::string& h = framed.header;
    if (h.empty()) {
      h = "{" + field + "}";
    } else if (h.front() == '{') {
      size_t p = 1;
      while (p < h.size() && (h[p] == ' ' || h[p] == '\t')) ++p;
      const bool empty_obj = p < h.size() && h[p] == '}';
      h.insert(1, empty_obj ? field : field + ", ");
    }
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(policy_.retry_budget_ms);
  prev_delay_ms_ = 0;
  std::string last_err;
  for (int attempt = 0;; ++attempt) {
    ++stats_.attempts;
    std::string connect_err;
    if (!ensure_connected(&connect_err)) {
      last_err = connect_err;  // daemon may be draining/restarting — retry
    } else if (!write_request(fd_, framed) || read_response(fd_, resp) != 1) {
      last_err = "connection to " + target_ + " dropped mid-request";
    } else if (resp->status == kStatusOverloaded) {
      ++stats_.overloaded;
      last_err = json_string_field(resp->meta, "error").value_or("overloaded");
    } else if (resp->status != kStatusOk &&
               json_bool_field(resp->meta, "retryable").value_or(false)) {
      last_err = json_string_field(resp->meta, "error")
                     .value_or("retryable server error");
    } else {
      return true;
    }
    // Always reconnect on a retryable failure: a shed/dropped connection
    // is dead, and a sticky per-session fault trip (serve.accept:N) must
    // not consume the rest of the budget on one doomed session.
    close();
    if (attempt >= policy_.max_retries) {
      if (err) *err = last_err + " (after " + std::to_string(attempt + 1) +
                      " attempts)";
      return false;
    }
    const uint64_t delay = next_delay_ms();
    if (std::chrono::steady_clock::now() + std::chrono::milliseconds(delay) >=
        deadline) {
      if (err) *err = last_err + " (retry budget exhausted)";
      return false;
    }
    ++stats_.retries;
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
}

}  // namespace deepmc::serve
