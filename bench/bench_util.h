// Shared helpers for the reproduction benchmarks: host configuration
// banner (the Table 7 analog) and fixed-width table printing.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/report.h"
#include "support/flags.h"

namespace deepmc::bench {

inline std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto pos = line.find(':');
      if (pos != std::string::npos) return line.substr(pos + 2);
    }
  }
  return "unknown";
}

inline uint64_t total_memory_mb() {
  std::ifstream f("/proc/meminfo");
  std::string key;
  uint64_t kb = 0;
  while (f >> key >> kb) {
    if (key == "MemTotal:") return kb / 1024;
    std::string rest;
    std::getline(f, rest);
  }
  return 0;
}

/// Print the system configuration the experiments ran on (Table 7 analog:
/// the paper used a Xeon 3.3GHz / 16GB / Ubuntu 18.04 / Clang 7 box).
inline void print_system_config(const char* bench_name) {
  std::printf("=== %s ===\n", bench_name);
  std::printf("System configuration (Table 7 analog):\n");
  std::printf("  Processor : %s (%u hardware threads)\n", cpu_model().c_str(),
              std::thread::hardware_concurrency());
  std::printf("  Memory    : %llu MB\n",
              static_cast<unsigned long long>(total_memory_mb()));
  std::printf("  Substrate : emulated PM (64B cachelines, Optane-like latency model)\n");
  std::printf("  Compiler  : " __VERSION__ "\n\n");
}

/// Minimal fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void print() const {
    std::vector<size_t> width(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_)
      for (size_t c = 0; c < row.size() && c < width.size(); ++c)
        width[c] = std::max(width[c], row[c].size());

    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("|");
      for (size_t c = 0; c < headers_.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(width[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (size_t c = 0; c < headers_.size(); ++c) {
      for (size_t i = 0; i < width[c] + 2; ++i) std::printf("-");
      std::printf("|");
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// The one `--json FILE` (or `--json=FILE`) parser: true when argv[i] is
/// the flag, with `i` advanced past a separate operand and the path in
/// `*path` (left empty when the operand is missing). scripts/bench.sh uses
/// the flag to collect machine-readable results (BENCH_<name>.json) next
/// to the text report.
inline bool json_out_path(int argc, char** argv, int& i, std::string* path) {
  return support::str_flag("--json", argv[i], argc, argv, i, path);
}

/// Value of the first `--json` argument, or "" when absent, for a binary
/// that takes no other flag.
inline std::string json_out_path(int argc, char** argv) {
  std::string path;
  for (int i = 1; i < argc; ++i)
    if (json_out_path(argc, argv, i, &path)) break;
  return path;
}

/// Minimal machine-readable result sink: a flat JSON object of metrics in
/// insertion order. Numbers are emitted as-is, strings quoted/escaped.
class JsonResult {
 public:
  explicit JsonResult(std::string bench) { add("bench", std::move(bench)); }

  void add(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, core::json_quote(value));
  }
  void add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    entries_.emplace_back(key, buf);
  }
  void add(const std::string& key, uint64_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }

  /// Write to `path` if non-empty. Returns false on IO failure.
  bool write(const std::string& path) const {
    if (path.empty()) return true;
    std::ofstream f(path, std::ios::binary);
    if (!f.good()) return false;
    f << "{\n";
    for (size_t i = 0; i < entries_.size(); ++i)
      f << "  \"" << entries_[i].first << "\": " << entries_[i].second
        << (i + 1 < entries_.size() ? ",\n" : "\n");
    f << "}\n";
    return f.good();
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace deepmc::bench
