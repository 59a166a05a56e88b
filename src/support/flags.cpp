#include "support/flags.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "support/faultpoint.h"

namespace deepmc::support {

namespace {

/// The '|'-separated words of `list` ("" has none).
std::vector<std::string> words(std::string_view list) {
  std::vector<std::string> out;
  while (!list.empty()) {
    const size_t bar = std::min(list.find('|'), list.size());
    out.emplace_back(list.substr(0, bar));
    list.remove_prefix(std::min(bar + 1, list.size()));
  }
  return out;
}

enum class Outcome { kNoMatch, kApplied, kMissing, kInvalid, kExit };

/// Applies `arg` to `f` when it is the flag spelled `name`, taking a
/// separate operand from argv[i + 1].
Outcome apply(const Command& cmd, const Flag& f, const std::string& name,
              const std::string& arg, int argc, char** argv, int& i) {
  if (f.operand == nullptr) {
    if (arg != name) return Outcome::kNoMatch;
    if (bool* const* b = std::get_if<bool*>(&f.target)) {
      **b = true;
    } else if (const Handler* h = std::get_if<Handler>(&f.target)) {
      if (!(*h)(arg)) return Outcome::kInvalid;
    } else if (const Exit* e = std::get_if<Exit>(&f.target)) {
      e->print();
      return Outcome::kExit;
    } else {
      print_usage(cmd, stdout);
      return Outcome::kExit;
    }
    return Outcome::kApplied;
  }
  bool matched = false;
  bool ok = true;
  if (const Integer* n = std::get_if<Integer>(&f.target)) {
    uint64_t v = 0;
    matched = num_flag(name, arg, argc, argv, i, &v, &ok,
                       std::min(f.max, n->max));
    ok = ok && v >= f.min;
    if (matched && ok) n->set(v);
  } else if (double* const* d = std::get_if<double*>(&f.target)) {
    matched = real_flag(name, arg, argc, argv, i, *d, &ok);
  } else {
    std::string v;
    matched = str_flag(name, arg, argc, argv, i, &v);
    const std::vector<std::string> choices = words(f.operand);
    ok = !v.empty() && (choices.size() < 2 ||
                        std::find(choices.begin(), choices.end(), v) !=
                            choices.end());
    if (matched && ok) {
      if (std::string* const* s = std::get_if<std::string*>(&f.target))
        **s = v;
      else if (auto* list = std::get_if<std::vector<std::string>*>(&f.target))
        (*list)->push_back(v);
      else
        ok = std::get<Handler>(f.target)(v);
    }
  }
  if (!matched) return Outcome::kNoMatch;
  if (i >= argc) return Outcome::kMissing;
  return ok ? Outcome::kApplied : Outcome::kInvalid;
}

}  // namespace

std::optional<int> parse_flags(const Command& cmd, int argc, char** argv) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      if (!cmd.input) return usage_error(cmd, "unexpected argument " + arg);
      cmd.input(arg);
      continue;
    }
    Outcome out = Outcome::kNoMatch;
    std::string name;
    try {
      for (const Flag& f : cmd.flags) {
        for (const std::string& spelling : words(f.names)) {
          out = apply(cmd, f, spelling, arg, argc, argv, i);
          if (out != Outcome::kNoMatch) {
            name = spelling;
            break;
          }
        }
        if (out != Outcome::kNoMatch) break;
      }
    } catch (const std::invalid_argument& e) {
      return usage_error(cmd, e.what());
    }
    switch (out) {
      case Outcome::kNoMatch:
        return usage_error(cmd, "unknown flag " + arg);
      case Outcome::kMissing:
        return usage_error(cmd, "missing value for " + name);
      case Outcome::kInvalid:
        return usage_error(cmd, "invalid value for " + name);
      case Outcome::kExit:
        return 0;
      case Outcome::kApplied:
        break;
    }
  }
  return std::nullopt;
}

void print_usage(const Command& cmd, FILE* out) {
  for (size_t k = 0; k < cmd.synopsis.size(); ++k)
    std::fprintf(out, "%s%s\n", k == 0 ? "usage: " : "       ",
                 cmd.synopsis[k].c_str());
  auto left = [](const Flag& f) {
    std::string s = f.names;
    if (f.operand != nullptr) s += std::string(" ") + f.operand;
    return s;
  };
  // Help starts in one column; a longer flag puts its help on the next
  // line.
  constexpr size_t kMaxWidth = 26;
  size_t width = 0;
  for (const Flag& f : cmd.flags)
    if (*f.names != '\0') width = std::max(width, left(f).size());
  width = std::min(width, kMaxWidth);
  if (!cmd.flags.empty() && *cmd.flags.front().names != '\0')
    std::fputc('\n', out);
  for (const Flag& f : cmd.flags) {
    const std::string l = left(f);
    const int w = static_cast<int>(width);
    if (l.empty())
      std::fprintf(out, "\n%s:\n", f.help);
    else if (l.size() > width)
      std::fprintf(out, "  %s\n  %*s  %s\n", l.c_str(), w, "", f.help);
    else
      std::fprintf(out, "  %-*s  %s\n", w, l.c_str(), f.help);
  }
  if (!cmd.notes.empty()) std::fprintf(out, "\n%s", cmd.notes.c_str());
}

int usage_error(const Command& cmd, const std::string& problem) {
  std::fprintf(stderr, "%s: %s\n", cmd.tool.c_str(), problem.c_str());
  print_usage(cmd, stderr);
  return kExitUsage;
}

Handler set_to(bool* field, bool value) {
  return [field, value](const std::string&) {
    *field = value;
    return true;
  };
}

Flag inject_fault_flag() {
  return {"--inject-fault", "NAME:COUNT",
          [](const std::string& spec) {
            arm_fault(spec);
            return true;
          },
          "arm a fault point (repeatable; or DEEPMC_FAULTS)"};
}

Flag list_fault_points_flag() {
  return {"--list-fault-points", nullptr, Exit{[] {
            for (const std::string& n : registered_fault_points())
              std::printf("%s\n", n.c_str());
          }},
          "list the registered fault points"};
}

Flag flight_out_flag(std::string* path) {
  if (const char* env = std::getenv("DEEPMC_FLIGHT_OUT")) *path = env;
  return {"--flight-out", "FILE", path,
          "dump flight events at exit (or DEEPMC_FLIGHT_OUT)"};
}

bool str_flag(const std::string& flag, const std::string& arg, int argc,
              char** argv, int& i, std::string* out) {
  if (arg == flag) {
    if (++i < argc) *out = argv[i];
    return true;
  }
  if (arg.size() > flag.size() && arg.compare(0, flag.size(), flag) == 0 &&
      arg[flag.size()] == '=') {
    if (arg.size() == flag.size() + 1)
      i = argc;  // "--flag=": the operand is missing
    else
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
