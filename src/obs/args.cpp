#include "obs/args.h"

#include <cassert>
#include <charconv>

#include "support/str.h"

namespace deepmc::obs {

namespace {

template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

}  // namespace

void Args::assign(std::span<const Arg> args) {
  assert(args.size() <= kMax);
  size_t bytes = 0;
  for (const Arg& a : args)
    if (a.type == Arg::Type::kStr) bytes += a.str.size();
  n_ = 0;  // empty, not torn, if the reserve throws
  text_.clear();
  text_.reserve(bytes);
  for (size_t k = 0; k < args.size(); ++k) {
    const Arg& a = args[k];
    Slot& s = slots_[k];
    s.key = a.key;
    s.type = a.type;
    switch (a.type) {
      case Arg::Type::kStr:
        s.len = a.str.size();
        text_.append(a.str);
        break;
      case Arg::Type::kInt: s.i = a.i; break;
      case Arg::Type::kUint: s.u = a.u; break;
      case Arg::Type::kReal: s.d = a.d; break;
    }
  }
  n_ = static_cast<uint8_t>(args.size());
}

void Args::append_json(std::string& out) const {
  out += '{';
  size_t off = 0;
  for (size_t k = 0; k < n_; ++k) {
    const Slot& s = slots_[k];
    if (k > 0) out += ", ";
    json_quote_append(out, s.key);
    out += ": ";
    switch (s.type) {
      case Arg::Type::kStr:
        json_quote_append(out, std::string_view(text_).substr(off, s.len));
        off += s.len;
        break;
      case Arg::Type::kInt: append_int(out, s.i); break;
      case Arg::Type::kUint: append_int(out, s.u); break;
      case Arg::Type::kReal: append_fixed3(out, s.d); break;
    }
  }
  out += '}';
}

void append_fixed3(std::string& out, double v) {
  // Wide enough for any finite double in fixed notation (DBL_MAX has 309
  // integer digits); to_chars then never fails on size.
  char buf[320];
  const auto r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 3);
  out.append(buf, r.ptr);
}

}  // namespace deepmc::obs
