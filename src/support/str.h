// Small string utilities shared across the project.
//
// GCC 12 does not ship std::format, so formatting goes through a printf-style
// helper with a compile-time-checked attribute.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace deepmc {

/// printf-style formatting into a std::string.
[[gnu::format(printf, 1, 2)]] inline std::string strformat(const char* fmt,
                                                           ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

/// Split `s` on `sep`, dropping empty pieces when `keep_empty` is false.
inline std::vector<std::string_view> split(std::string_view s, char sep,
                                           bool keep_empty = false) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      std::string_view piece = s.substr(start, i - start);
      if (keep_empty || !piece.empty()) out.push_back(piece);
      start = i + 1;
    }
  }
  return out;
}

inline std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r' || s.front() == '\n'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r' || s.back() == '\n'))
    s.remove_suffix(1);
  return s;
}

inline bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Append `s` to `out` as a JSON string literal: surrounding quotes plus
/// escapes for quote, backslash, and control characters (\uXXXX for the
/// ones without a short form). Bytes >= 0x20 pass through, so UTF-8
/// survives. The one JSON string quoter: reports, manifests, metrics,
/// traces and flight dumps all render strings through it.
inline void json_quote_append(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.reserve(out.size() + s.size() + 2);
  out.push_back('"');
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          out += "\\u00";
          out.push_back(kHex[c >> 4]);
          out.push_back(kHex[c & 0xf]);
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
}

inline std::string json_quote(std::string_view s) {
  std::string out;
  json_quote_append(out, s);
  return out;
}

}  // namespace deepmc
