// Command-line flag helpers shared by the deepmc tools. Each accepts
// `--flag VALUE` and `--flag=VALUE` and returns true when `arg` is that
// flag (advancing `i` past a separate operand); a missing or malformed
// operand leaves `*ok` false so the caller can report it and exit 64.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace deepmc::support {

/// Upper bound on thread-count flags (`deepmc --jobs`, `deepmc serve
/// --jobs` and `--max-sessions`).
inline constexpr uint64_t kMaxJobs = 1024;

/// A plain unsigned decimal: digits only (no sign, no whitespace), no
/// larger than `max`.
bool num_flag(const std::string& flag, const std::string& arg, int argc,
              char** argv, int& i, uint64_t* out, bool* ok,
              uint64_t max = std::numeric_limits<uint64_t>::max());

/// A real number in strtod syntax that spans the whole operand.
bool real_flag(const std::string& flag, const std::string& arg, int argc,
               char** argv, int& i, double* out, bool* ok);

/// Any operand; a missing one leaves `*out` empty.
bool str_flag(const std::string& flag, const std::string& arg, int argc,
              char** argv, int& i, std::string* out);

}  // namespace deepmc::support
