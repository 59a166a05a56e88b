// Typed telemetry args: what a span or a flight event carries besides its
// name.
//
// A call site passes its args as a braced list of views:
//
//   obs::flight().record("serve.request", {{"id", rid}, {"exit", code}});
//   obs::Span span("root.check", "checker", {{"root", f.name()}});
//
// Each arg is a key literal plus a string view, a signed or unsigned
// integer, or a real. The recorder copies them into an `Args` only when
// it is on, before the call returns, so a view into a temporary
// (`loc.str()`) is safe. Nothing is formatted or escaped at record time:
// `Args::append_json` renders the object once, when a trace or flight
// dump is written. Passing more than `Args::kMax` args is a compile
// error at the recording call.
#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace deepmc::obs {

/// One argument as the call site passes it. `key` must have static
/// storage duration (a string literal); a string value is only viewed.
struct Arg {
  enum class Type : uint8_t { kStr, kInt, kUint, kReal };

  Arg(const char* k, const char* v) : key(k), type(Type::kStr), str(v) {}
  Arg(const char* k, std::string_view v) : key(k), type(Type::kStr), str(v) {}
  template <std::signed_integral T>
  Arg(const char* k, T v) : key(k), type(Type::kInt), i(v) {}
  template <std::unsigned_integral T>
    requires(!std::same_as<T, bool>)
  Arg(const char* k, T v) : key(k), type(Type::kUint), u(v) {}
  Arg(const char* k, double v) : key(k), type(Type::kReal), d(v) {}
  Arg(const char* k, bool v) = delete;  ///< else a bool reads as a real

  const char* key;
  Type type;
  union {
    std::string_view str;
    int64_t i;
    uint64_t u;
    double d;
  };
};

/// Args copied out of one recording call: `kMax` fixed slots (key, type,
/// number or string length) plus one buffer holding every string value
/// whole, in order. Re-assigning reuses the buffer's capacity, so a ring
/// slot that is overwritten with events of the same shape allocates
/// nothing.
class Args {
 public:
  static constexpr size_t kMax = 4;

  /// Replace the held args with copies of `args` (at most kMax; the
  /// recording calls check that at compile time).
  void assign(std::span<const Arg> args);

  [[nodiscard]] bool empty() const { return n_ == 0; }

  /// Append the args as one JSON object, `{"key": value, ...}`: strings
  /// through json_quote, integers exactly, reals as "%.3f" does.
  void append_json(std::string& out) const;

 private:
  struct Slot {
    const char* key;
    Arg::Type type;
    union {
      int64_t i;
      uint64_t u;
      double d;
      size_t len;  ///< kStr: the value's bytes, next in `text_`
    };
  };
  std::array<Slot, kMax> slots_{};
  uint8_t n_ = 0;
  std::string text_;
};

/// Append `v` as "%.3f" prints it: the format of every real in a trace
/// or flight dump (timestamps, durations, real-valued args).
void append_fixed3(std::string& out, double v);

}  // namespace deepmc::obs
