#include "serve/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace deepmc::serve {

namespace {

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

int read_payload(int fd, std::string* out, size_t n) {
  out->resize(n);
  if (n == 0) return 1;
  const int rc = read_exact(fd, out->data(), n);
  return rc == 1 ? 1 : -1;  // EOF mid-frame is malformed, not clean
}

using SteadyClock = std::chrono::steady_clock;

/// read_exact against an absolute deadline, using poll() so a stalled
/// peer cannot pin the thread in a blocking read. Returns 1 / 0 / -1 like
/// read_exact, plus -2 when the deadline passes first.
int read_exact_deadline(int fd, void* buf, size_t n,
                        SteadyClock::time_point deadline) {
  char* p = static_cast<char*>(buf);
  size_t got = 0;
  while (got < n) {
    const auto now = SteadyClock::now();
    if (now >= deadline) return -2;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(left.count()) + 1);
    if (pr == 0) return -2;
    if (pr < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    const ssize_t rc = ::read(fd, p + got, n - got);
    if (rc > 0) {
      got += static_cast<size_t>(rc);
      continue;
    }
    if (rc == 0) return got == 0 ? 0 : -1;
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return -1;
  }
  return 1;
}

int read_payload_deadline(int fd, std::string* out, size_t n,
                          SteadyClock::time_point deadline) {
  out->resize(n);
  if (n == 0) return 1;
  const int rc = read_exact_deadline(fd, out->data(), n, deadline);
  if (rc == -2) return -2;
  return rc == 1 ? 1 : -1;
}

}  // namespace

int read_exact(int fd, void* buf, size_t n) {
  char* p = static_cast<char*>(buf);
  size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::read(fd, p + got, n - got);
    if (rc > 0) {
      got += static_cast<size_t>(rc);
      continue;
    }
    if (rc == 0) return got == 0 ? 0 : -1;  // truncation is an error
    if (errno == EINTR) continue;
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

int read_request(int fd, RequestFrame* out) {
  char head[16];
  const int rc = read_exact(fd, head, sizeof head);
  if (rc != 1) return rc;
  if (std::memcmp(head, kRequestMagic, 4) != 0) return -1;
  if (get_u32(head + 4) != kProtocolVersion) return -1;
  const uint32_t header_len = get_u32(head + 8);
  const uint32_t body_len = get_u32(head + 12);
  if (header_len > kMaxHeaderBytes || body_len > kMaxBodyBytes) return -1;
  if (read_payload(fd, &out->header, header_len) != 1) return -1;
  if (read_payload(fd, &out->body, body_len) != 1) return -1;
  return 1;
}

int read_request_timed(int fd, RequestFrame* out, uint64_t timeout_ms) {
  if (timeout_ms == 0) return read_request(fd, out);
  const auto window = std::chrono::milliseconds(timeout_ms);
  // Idle bound: the first byte of the next frame must arrive within one
  // window. Once it does, the frame clock restarts — a legitimately idle
  // keep-alive client is not penalized for the wait.
  char head[16];
  auto deadline = SteadyClock::now() + window;
  int rc = read_exact_deadline(fd, head, 1, deadline);
  if (rc != 1) return rc;
  // Stall bound: the rest of the frame shares one fresh window.
  deadline = SteadyClock::now() + window;
  rc = read_exact_deadline(fd, head + 1, sizeof head - 1, deadline);
  if (rc == -2) return -2;
  if (rc != 1) return -1;  // EOF mid-header is truncation
  if (std::memcmp(head, kRequestMagic, 4) != 0) return -1;
  if (get_u32(head + 4) != kProtocolVersion) return -1;
  const uint32_t header_len = get_u32(head + 8);
  const uint32_t body_len = get_u32(head + 12);
  if (header_len > kMaxHeaderBytes || body_len > kMaxBodyBytes) return -1;
  rc = read_payload_deadline(fd, &out->header, header_len, deadline);
  if (rc != 1) return rc;
  rc = read_payload_deadline(fd, &out->body, body_len, deadline);
  if (rc != 1) return rc;
  return 1;
}

bool write_request(int fd, const RequestFrame& frame) {
  char head[16];
  std::memcpy(head, kRequestMagic, 4);
  put_u32(head + 4, kProtocolVersion);
  put_u32(head + 8, static_cast<uint32_t>(frame.header.size()));
  put_u32(head + 12, static_cast<uint32_t>(frame.body.size()));
  return write_exact(fd, head, sizeof head) &&
         write_exact(fd, frame.header.data(), frame.header.size()) &&
         write_exact(fd, frame.body.data(), frame.body.size());
}

int read_response(int fd, ResponseFrame* out) {
  char head[20];
  const int rc = read_exact(fd, head, sizeof head);
  if (rc != 1) return rc;
  if (std::memcmp(head, kResponseMagic, 4) != 0) return -1;
  if (get_u32(head + 4) != kProtocolVersion) return -1;
  out->status = get_u32(head + 8);
  const uint32_t meta_len = get_u32(head + 12);
  const uint32_t body_len = get_u32(head + 16);
  if (meta_len > kMaxHeaderBytes || body_len > kMaxBodyBytes) return -1;
  if (read_payload(fd, &out->meta, meta_len) != 1) return -1;
  if (read_payload(fd, &out->body, body_len) != 1) return -1;
  return 1;
}

bool write_response(int fd, const ResponseFrame& frame) {
  char head[20];
  std::memcpy(head, kResponseMagic, 4);
  put_u32(head + 4, kProtocolVersion);
  put_u32(head + 8, frame.status);
  put_u32(head + 12, static_cast<uint32_t>(frame.meta.size()));
  put_u32(head + 16, static_cast<uint32_t>(frame.body.size()));
  return write_exact(fd, head, sizeof head) &&
         write_exact(fd, frame.meta.data(), frame.meta.size()) &&
         write_exact(fd, frame.body.data(), frame.body.size());
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
  try {
    return std::stod(std::string(json.substr(p, end - p)));
  } catch (const std::exception&) {
    return std::nullopt;
  }
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
