#include "support/flags.h"

#include <cstdlib>

namespace deepmc::support {

bool str_flag(const std::string& flag, const std::string& arg, int argc,
              char** argv, int& i, std::string* out) {
  if (arg == flag) {
    if (++i < argc) *out = argv[i];
    return true;
  }
  if (arg.size() > flag.size() + 1 && arg.compare(0, flag.size(), flag) == 0 &&
      arg[flag.size()] == '=') {
    *out = arg.substr(flag.size() + 1);
    return true;
  }
  return false;
}

bool num_flag(const std::string& flag, const std::string& arg, int argc,
              char** argv, int& i, uint64_t* out, bool* ok, uint64_t max) {
  std::string text;
  if (!str_flag(flag, arg, argc, argv, i, &text)) return false;
  uint64_t n = 0;
  *ok = !text.empty();
  for (const char c : text) {
    const uint64_t digit = c >= '0' && c <= '9' ? c - '0' : 10;
    // n * 10 + digit <= max, without overflowing.
    if (digit > 9 || digit > max || n > (max - digit) / 10) {
      *ok = false;
      break;
    }
    n = n * 10 + digit;
  }
  if (*ok) *out = n;
  return true;
}

bool real_flag(const std::string& flag, const std::string& arg, int argc,
               char** argv, int& i, double* out, bool* ok) {
  std::string text;
  if (!str_flag(flag, arg, argc, argv, i, &text)) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  *ok = !text.empty() && end == text.c_str() + text.size();
  if (*ok) *out = v;
  return true;
}

}  // namespace deepmc::support
