#include "serve/protocol.h"

#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace deepmc::serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

constexpr char kRequestMagic[4] = {'D', 'M', 'R', 'Q'};
constexpr char kResponseMagic[4] = {'D', 'M', 'R', 'S'};

void put_u32(char* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>(v >> (i * 8));
}

uint32_t get_u32(const char* in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<uint32_t>(static_cast<unsigned char>(in[i])) << (i * 8);
  return v;
}

/// One window from now, or no deadline for a window of 0.
std::optional<SteadyClock::time_point> window_from_now(uint64_t window_ms) {
  if (window_ms == 0) return std::nullopt;
  return SteadyClock::now() + std::chrono::milliseconds(window_ms);
}

/// One frame: `magic`, the protocol version, a status when `status` is set
/// (responses only), the two payload lengths, then the two payloads.
int read_frame(int fd, const char (&magic)[4], uint32_t* status,
               std::string* first, std::string* second, uint64_t timeout_ms) {
  char head[20];
  const size_t head_bytes = status != nullptr ? 20 : 16;
  // A timed read waits one window for the first byte alone, then gives the
  // rest of the frame one fresh window; an untimed read takes the whole
  // head in one call.
  const size_t idle_bytes = timeout_ms > 0 ? 1 : head_bytes;
  int rc = read_exact(fd, head, idle_bytes, window_from_now(timeout_ms));
  if (rc != 1) return rc;
  const auto deadline = window_from_now(timeout_ms);
  rc = read_exact(fd, head + idle_bytes, head_bytes - idle_bytes, deadline);
  if (rc != 1) return rc == -2 ? -2 : -1;  // EOF mid-frame is truncation
  if (std::memcmp(head, magic, 4) != 0 ||
      get_u32(head + 4) != kProtocolVersion)
    return -1;
  if (status != nullptr) *status = get_u32(head + 8);
  const uint32_t first_len = get_u32(head + head_bytes - 8);
  const uint32_t second_len = get_u32(head + head_bytes - 4);
  if (first_len > kMaxHeaderBytes || second_len > kMaxBodyBytes) return -1;
  for (const auto& [out, len] : {std::pair{first, first_len},
                                 std::pair{second, second_len}}) {
    out->resize(len);
    rc = read_exact(fd, out->data(), len, deadline);
    if (rc != 1) return rc == -2 ? -2 : -1;
  }
  return 1;
}

bool write_frame(int fd, const char (&magic)[4], const uint32_t* status,
                 std::string_view first, std::string_view second) {
  char head[20];
  std::memcpy(head, magic, 4);
  put_u32(head + 4, kProtocolVersion);
  size_t n = 8;
  if (status != nullptr) {
    put_u32(head + n, *status);
    n += 4;
  }
  put_u32(head + n, static_cast<uint32_t>(first.size()));
  put_u32(head + n + 4, static_cast<uint32_t>(second.size()));
  n += 8;
  return write_exact(fd, head, n) &&
         write_exact(fd, first.data(), first.size()) &&
         write_exact(fd, second.data(), second.size());
}

}  // namespace

int read_exact(int fd, void* buf, size_t n,
               std::optional<SteadyClock::time_point> deadline) {
  char* p = static_cast<char*>(buf);
  size_t got = 0;
  while (got < n) {
    if (deadline) {
      const auto now = SteadyClock::now();
      if (now >= *deadline) return -2;
      const int64_t left =
          std::chrono::duration_cast<std::chrono::milliseconds>(*deadline -
                                                                now)
              .count();
      // Windows stop at support::kMaxMillis, so this fits an int.
      pollfd pfd{fd, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, static_cast<int>(left) + 1);
      if (pr == 0) return -2;
      if (pr < 0) {
        if (errno == EINTR) continue;
        return -1;
      }
    }
    const ssize_t rc = ::read(fd, p + got, n - got);
    if (rc > 0) {
      got += static_cast<size_t>(rc);
      continue;
    }
    if (rc == 0) return got == 0 ? 0 : -1;  // truncation is an error
    // A polled descriptor may still report no data; poll again.
    if (errno == EINTR ||
        (deadline && (errno == EAGAIN || errno == EWOULDBLOCK)))
      continue;
    return -1;
  }
  return 1;
}

bool write_exact(int fd, const void* buf, size_t n) {
  const char* p = static_cast<const char*>(buf);
  size_t sent = 0;
  while (sent < n) {
    // On a socket whose peer has closed (a shed client, a vanished daemon)
    // send() fails with EPIPE instead of raising SIGPIPE, which would kill
    // a client process; pipes and files take write().
    ssize_t rc = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (rc < 0 && errno == ENOTSOCK) rc = ::write(fd, p + sent, n - sent);
    if (rc > 0) {
      sent += static_cast<size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

int read_request(int fd, RequestFrame* out, uint64_t timeout_ms) {
  return read_frame(fd, kRequestMagic, nullptr, &out->header, &out->body,
                    timeout_ms);
}

bool write_request(int fd, const RequestFrame& frame) {
  return write_frame(fd, kRequestMagic, nullptr, frame.header, frame.body);
}

int read_response(int fd, ResponseFrame* out) {
  return read_frame(fd, kResponseMagic, &out->status, &out->meta, &out->body,
                    0);
}

bool write_response(int fd, const ResponseFrame& frame) {
  return write_frame(fd, kResponseMagic, &frame.status, frame.meta,
                     frame.body);
}

std::optional<TcpEndpoint> parse_tcp_endpoint(const std::string& spec,
                                              std::string* err) {
  TcpEndpoint ep;
  std::string port_str = spec;
  const size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    ep.host = spec.substr(0, colon);
    port_str = spec.substr(colon + 1);
  }
  if (ep.host.empty()) ep.host = "127.0.0.1";
  char* end = nullptr;
  const long port = std::strtol(port_str.c_str(), &end, 10);
  if (port_str.empty() || *end != '\0' || port < 0 || port > 65535) {
    if (err) *err = "bad TCP listen spec '" + spec + "' (want host:port)";
    return std::nullopt;
  }
  ep.addr.sin_family = AF_INET;
  ep.addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, ep.host.c_str(), &ep.addr.sin_addr) != 1) {
    if (err) *err = "bad TCP listen address '" + ep.host + "'";
    return std::nullopt;
  }
  return ep;
}

std::optional<sockaddr_un> unix_endpoint(const std::string& path,
                                         std::string* err) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    if (err) *err = "socket path too long: " + path;
    return std::nullopt;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

namespace {

/// Position just past `"key":` in a flat JSON object, or npos.
size_t value_pos(std::string_view json, std::string_view key) {
  const std::string quoted = "\"" + std::string(key) + "\"";
  size_t pos = 0;
  while ((pos = json.find(quoted, pos)) != std::string_view::npos) {
    size_t p = pos + quoted.size();
    while (p < json.size() && (json[p] == ' ' || json[p] == '\t')) ++p;
    if (p < json.size() && json[p] == ':') {
      ++p;
      while (p < json.size() && (json[p] == ' ' || json[p] == '\t')) ++p;
      return p;
    }
    pos += quoted.size();
  }
  return std::string_view::npos;
}

}  // namespace

std::optional<std::string> json_string_field(std::string_view json,
                                             std::string_view key) {
  size_t p = value_pos(json, key);
  if (p == std::string_view::npos || p >= json.size() || json[p] != '"')
    return std::nullopt;
  ++p;
  std::string out;
  while (p < json.size()) {
    const char c = json[p];
    if (c == '"') return out;
    if (c == '\\') {
      if (p + 1 >= json.size()) return std::nullopt;
      const char e = json[p + 1];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (p + 5 >= json.size()) return std::nullopt;
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = json[p + 2 + i];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else return std::nullopt;
          }
          // Headers only ever escape control characters; anything wider
          // would need full UTF-16 handling this protocol doesn't use.
          if (v > 0x7f) return std::nullopt;
          out += static_cast<char>(v);
          p += 4;
          break;
        }
        default: return std::nullopt;
      }
      p += 2;
      continue;
    }
    out += c;
    ++p;
  }
  return std::nullopt;  // unterminated
}

std::optional<double> json_num_field(std::string_view json,
                                     std::string_view key) {
  const size_t p = value_pos(json, key);
  if (p == std::string_view::npos || p >= json.size()) return std::nullopt;
  const char c = json[p];
  if (c != '-' && (c < '0' || c > '9')) return std::nullopt;
  size_t end = p;
  while (end < json.size() &&
         (json[end] == '-' || json[end] == '+' || json[end] == '.' ||
          json[end] == 'e' || json[end] == 'E' ||
          (json[end] >= '0' && json[end] <= '9')))
    ++end;
  const std::string text(json.substr(p, end - p));
  char* stop = nullptr;
  const double v = std::strtod(text.c_str(), &stop);
  if (stop == text.c_str()) return std::nullopt;
  return v;
}

std::optional<bool> json_bool_field(std::string_view json,
                                    std::string_view key) {
  const size_t p = value_pos(json, key);
  if (p == std::string_view::npos) return std::nullopt;
  if (json.substr(p, 4) == "true") return true;
  if (json.substr(p, 5) == "false") return false;
  return std::nullopt;
}

}  // namespace deepmc::serve
