// Command-line flags for the deepmc tools. Each tool declares its flags
// once, in a Command table; parse_flags() applies them and print_usage()
// renders the usage text from the same table.
//
// The syntax is the same in every tool. An argument that starts with '-'
// is a flag and any other argument is an input. A flag with an operand
// takes it as `--flag VALUE` or `--flag=VALUE`; every operand is
// non-empty. A usage error prints `<tool>: <problem>` and then the usage
// on stderr, and exits kExitUsage. The parser's own problems are:
//   <tool>: unknown flag X
//   <tool>: missing value for X
//   <tool>: invalid value for X
#pragma once

#include <concepts>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace deepmc::support {

/// Exit status of every usage error.
inline constexpr int kExitUsage = 64;

/// Upper bound on thread-count flags (`deepmc --jobs`, `deepmc serve
/// --jobs` and `--max-sessions`, `deepmc-load --threads`,
/// `deepmc-corpus run --jobs`).
inline constexpr uint64_t kMaxJobs = 1024;

/// Upper bound on millisecond bounds from outside the process: every
/// millisecond flag of the tools and the analyze header's deadline_ms.
/// About 24.8 days; a deadline this far off still fits steady_clock
/// arithmetic and poll()'s int timeout plus one.
inline constexpr uint64_t kMaxMillis = (uint64_t{1} << 31) - 2;

/// What a flag does with its operand (or, for a switch, the spelling it
/// matched). Returning false makes the operand an invalid value; a
/// std::invalid_argument it throws is reported with its own message.
using Handler = std::function<bool(const std::string&)>;

/// An integer field of any width, plain or optional. Its flag's bound is
/// capped at the largest value the field holds.
struct Integer {
  template <typename T>
    requires(std::integral<T> && !std::same_as<T, bool>)
  Integer(T* field)
      : max(std::numeric_limits<T>::max()),
        set([field](uint64_t v) { *field = static_cast<T>(v); }) {}
  template <typename T>
    requires(std::integral<T> && !std::same_as<T, bool>)
  Integer(std::optional<T>* field)
      : max(std::numeric_limits<T>::max()),
        set([field](uint64_t v) { *field = static_cast<T>(v); }) {}

  uint64_t max;
  std::function<void(uint64_t)> set;
};

/// A switch that runs `print` and ends the run with exit 0 (--list-*).
struct Exit {
  std::function<void()> print;
};

/// A switch that prints the usage to stdout and ends the run with exit 0.
struct Help {};

/// Where a flag's value goes. A bool is set by its switch; an integer,
/// double or string takes the operand; a list appends it.
using Target = std::variant<bool*, Integer, double*, std::string*,
                            std::vector<std::string>*, Handler, Exit, Help>;

/// One row of a flag table. `names` lists the flag's spellings, split by
/// '|' ("--jobs|-j"). A flag without an `operand` is a switch; an
/// operand written `a|b` accepts only those words. A row with no names
/// is a heading in the usage text (see heading()).
struct Flag {
  const char* names = "";
  const char* operand = nullptr;
  Target target;
  const char* help = "";
  uint64_t max = std::numeric_limits<uint64_t>::max();  ///< integer operands
  uint64_t min = 0;                                      ///< integer operands
};

/// A switch's handler that stores `value` in `*field`; a switch whose
/// target is the bool itself stores true.
Handler set_to(bool* field, bool value);

/// A usage heading that starts a group of flags.
inline Flag heading(const char* title) { return {"", nullptr, {}, title}; }

/// One command line: the tool's name, which prefixes every message; the
/// synopsis lines after "usage: "; its flags, in usage order; what an
/// input argument does (empty: inputs are usage errors); and notes
/// printed after the flags.
struct Command {
  std::string tool;
  std::vector<std::string> synopsis;
  std::vector<Flag> flags;
  std::function<void(const std::string&)> input = {};
  std::string notes = {};
};

/// Applies argv[0, argc) to `cmd`'s targets, in order. Returns nullopt
/// when every argument applied; otherwise the run ends with the returned
/// code, 0 after a Help or Exit switch and kExitUsage after a usage
/// error, which has been reported.
std::optional<int> parse_flags(const Command& cmd, int argc, char** argv);

/// The usage text: synopsis, flag table, notes.
void print_usage(const Command& cmd, FILE* out);

/// Reports `<tool>: <problem>` and the usage on stderr; returns
/// kExitUsage.
int usage_error(const Command& cmd, const std::string& problem);

// The flags several tools share, declared once here.

/// `--inject-fault NAME:COUNT`: arms a fault point (support/faultpoint.h).
Flag inject_fault_flag();
/// `--list-fault-points`: prints the registered fault points, exits 0.
Flag list_fault_points_flag();
/// `--flight-out FILE` into `*path`, which starts as $DEEPMC_FLIGHT_OUT.
Flag flight_out_flag(std::string* path);

// The operand readers parse_flags() applies. Each returns true when
// `arg` is `flag`, as `--flag VALUE` (advancing `i` past the operand,
// or to argc when it is missing) or `--flag=VALUE` (`--flag=` alone is
// a missing operand too, and also moves `i` to argc).

/// A plain unsigned decimal: digits only (no sign, no whitespace), no
/// larger than `max`. A missing or malformed operand leaves `*ok` false.
bool num_flag(const std::string& flag, const std::string& arg, int argc,
              char** argv, int& i, uint64_t* out, bool* ok,
              uint64_t max = std::numeric_limits<uint64_t>::max());

/// A real number in strtod syntax that spans the whole operand.
bool real_flag(const std::string& flag, const std::string& arg, int argc,
               char** argv, int& i, double* out, bool* ok);

/// Any operand; a missing one leaves `*out` as it was.
bool str_flag(const std::string& flag, const std::string& arg, int argc,
              char** argv, int& i, std::string* out);

}  // namespace deepmc::support
