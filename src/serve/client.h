// Hardened client for `deepmc serve`: one connection to a daemon (Unix
// socket path or host:port) with automatic retry of *retryable* failures
// — overloaded (status 2) shed responses, error responses whose meta says
// "retryable": true (injected serve.accept faults), connect failures, and
// mid-request transport drops.
//
// Retry shape: exponential backoff with decorrelated jitter
// (delay = uniform(base, prev * 3), capped), bounded by both an attempt
// count and a wall-clock budget. Every retryable failure closes and
// reconnects — a daemon that shed or dropped us owes nothing to the old
// connection, and a per-session sticky fault trip must not burn the
// whole retry budget on one doomed session.
//
// Idempotency: call() injects a stable "id" header (kept across every
// attempt of one call) when the request has none, so daemon-side
// telemetry can collapse retries of the same logical request.
#pragma once

#include <cstdint>
#include <random>
#include <string>

#include "serve/protocol.h"

namespace deepmc::serve {

/// Connect to `target`: a TCP endpoint (protocol.h) when it holds a ':'
/// and parses as one with a port of 1-65535, else a Unix-domain socket
/// path. Returns the fd, or -1 with a message in *err.
int connect_target(const std::string& target, std::string* err);

struct RetryPolicy {
  int max_retries = 4;             ///< retries after the first attempt
  uint64_t retry_budget_ms = 2000; ///< wall-clock cap across all retries
  uint64_t base_delay_ms = 5;
  uint64_t max_delay_ms = 250;
};

class ServeClient {
 public:
  explicit ServeClient(std::string target, RetryPolicy policy = {});
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// One request/response round trip with retries. Returns true with
  /// *resp filled on any non-retryable response (including status 1
  /// errors — the caller decides what a server-side error means); false
  /// with *err set when the retry budget is exhausted or the failure is
  /// not retryable (e.g. the daemon is simply not there and stays gone).
  bool call(const RequestFrame& req, ResponseFrame* resp, std::string* err);

  /// Drop the connection; the next call() reconnects.
  void close();

  struct Stats {
    uint64_t attempts = 0;    ///< round trips tried (first + retries)
    uint64_t retries = 0;     ///< attempts after the first, per call
    uint64_t overloaded = 0;  ///< status-2 shed responses absorbed
    uint64_t reconnects = 0;  ///< connections (re)established
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  bool ensure_connected(std::string* err);
  uint64_t next_delay_ms();

  std::string target_;
  RetryPolicy policy_;
  int fd_ = -1;
  uint64_t prev_delay_ms_ = 0;
  uint64_t id_seq_ = 0;
  std::mt19937_64 rng_;
  Stats stats_;
};

}  // namespace deepmc::serve
