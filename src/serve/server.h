// `deepmc serve` entry points: the session loop over one framed stream
// and the CLI that dispatches between daemon mode (--socket / --listen /
// --stdin) and client mode (--connect, built on the retrying
// ServeClient).
#pragma once

#include <cstdint>

namespace deepmc::serve {

class AnalysisService;

/// Per-session knobs the daemon threads into serve_stream. The default
/// (nullptr) keeps the historical behavior: blocking frame reads, no
/// daemon-side deadline — what --stdin mode and the tests want.
struct SessionHooks {
  /// Per-frame read bound (protocol.h read_request_timed); 0 = block.
  /// A timed-out frame closes the session silently — no response is
  /// owed to a peer that never finished asking.
  uint64_t io_timeout_ms = 0;
  /// Daemon default per-request deadline (--request-timeout-ms). The
  /// effective deadline is the *smaller* of this and the client's
  /// "deadline_ms" header; 0 means the other side decides alone.
  uint64_t default_deadline_ms = 0;
};

/// Serve one framed request stream (one connection, or stdin/stdout in
/// --stdin mode). Holds one fault-injection scope for the whole session,
/// so an armed "serve.accept:N" trips on the N-th request and stays
/// tripped — each affected request gets a retryable error response and
/// the stream keeps going. Returns 0 on clean EOF / stream error /
/// frame-read timeout, 1 when a shutdown request was served.
int serve_stream(AnalysisService& service, int in_fd, int out_fd,
                 const SessionHooks* hooks = nullptr);

/// `deepmc serve ...`: daemon (--socket / --listen / --stdin) or client
/// (--connect).
int serve_cli(int argc, char** argv);

}  // namespace deepmc::serve
