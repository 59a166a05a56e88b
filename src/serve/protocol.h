// Length-prefixed request/response framing for `deepmc serve`
// (docs/SERVER.md). One frame layout each way, over any byte stream — a
// Unix-domain socket connection or a pipe/file pair in --stdin mode:
//
//   request:   'DMRQ'  u32 version  u32 header_len  u32 body_len
//              header (flat JSON)   body (raw MIR text)
//   response:  'DMRS'  u32 version  u32 status      u32 meta_len
//              u32 body_len         meta (flat JSON)  body (report)
//
// All integers little-endian. status 0 = ok, 1 = error (meta carries
// "error"), 2 = overloaded — a retryable admission-control rejection (the
// daemon's accept queue was full; back off and resend the same request).
// Header/meta are single-level JSON objects of string, number, and
// boolean fields — parsed here with a small scanner, no JSON library.
#pragma once

#include <netinet/in.h>
#include <sys/un.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace deepmc::serve {

inline constexpr uint32_t kProtocolVersion = 1;
inline constexpr size_t kMaxHeaderBytes = 1u << 20;   ///< 1 MiB
inline constexpr size_t kMaxBodyBytes = 256u << 20;   ///< 256 MiB

/// Response status codes. Overloaded responses carry meta
/// {"error": ..., "retryable": true} and an empty body; a well-behaved
/// client backs off (exponential + jitter) and resends the request.
inline constexpr uint32_t kStatusOk = 0;
inline constexpr uint32_t kStatusError = 1;
inline constexpr uint32_t kStatusOverloaded = 2;

struct RequestFrame {
  std::string header;  ///< flat JSON: op/name/model/format/timing/corpus
  std::string body;    ///< MIR text for op "analyze"
};

struct ResponseFrame {
  uint32_t status = 0;  ///< kStatusOk / kStatusError / kStatusOverloaded
  std::string meta;     ///< flat JSON: exit/cache/failed/degraded/warnings
  std::string body;     ///< rendered report
};

/// EINTR-safe whole-buffer I/O on a file descriptor. read_exact returns 1
/// on success, 0 on clean EOF before the first byte, -1 on error or
/// truncation, and -2 when `deadline` passes first; with a deadline it
/// polls before each read, so a stalled peer cannot pin the thread, and
/// without one it blocks. write_exact returns false on I/O error; on a
/// socket whose peer is gone it fails with EPIPE rather than raising
/// SIGPIPE.
int read_exact(
    int fd, void* buf, size_t n,
    std::optional<std::chrono::steady_clock::time_point> deadline = {});
bool write_exact(int fd, const void* buf, size_t n);

/// Frame I/O, one reader and one writer for both directions. Readers
/// return read_exact's codes, -1 also for a malformed frame; writers
/// return false on I/O error. A frame's magic, version and both length
/// bounds are checked before any payload byte is read.
///
/// `timeout_ms` (0 = block) bounds a request read twice: an idle
/// connection must deliver the frame's first byte within one window, and
/// the rest of the frame must arrive within one fresh window, so a
/// slowloris drip-feed cannot hold a session slot past one window per
/// frame. -2 means a bound expired: close the connection, no response is
/// owed.
int read_request(int fd, RequestFrame* out, uint64_t timeout_ms = 0);
bool write_request(int fd, const RequestFrame& frame);
int read_response(int fd, ResponseFrame* out);
bool write_response(int fd, const ResponseFrame& frame);

/// Socket endpoints, one syntax for --listen and --connect; each side adds
/// its own rules. An IPv4 endpoint is "host:port", split at the last ':'
/// with an empty host meaning 127.0.0.1, or a bare "port"; the port is a
/// decimal of 0-65535. A Unix endpoint is a path that fits sun_path. On
/// failure both return nullopt and, when `err` is set, the message.
struct TcpEndpoint {
  std::string host;  ///< as given, or 127.0.0.1
  sockaddr_in addr{};
};
std::optional<TcpEndpoint> parse_tcp_endpoint(const std::string& spec,
                                              std::string* err);
std::optional<sockaddr_un> unix_endpoint(const std::string& path,
                                         std::string* err);

/// Flat-JSON field access for headers/meta. Strings are unescaped;
/// absent keys (or type mismatches) return nullopt. A number past a
/// double's range reads as +-infinity, so a bound check still sees it.
std::optional<std::string> json_string_field(std::string_view json,
                                             std::string_view key);
std::optional<double> json_num_field(std::string_view json,
                                     std::string_view key);
std::optional<bool> json_bool_field(std::string_view json,
                                    std::string_view key);

}  // namespace deepmc::serve
