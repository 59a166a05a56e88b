// What one benchmark run measured and whether the program's outputs were
// correct, printed as readable lines followed by one JSON object.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line settings shared by every workload.
struct Config {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  unsigned nproc = 1;      ///< hardware threads
  std::string work_dir;    ///< scratch space inside the checkout
};

class Result {
 public:
  explicit Result(std::string workload) : workload_(std::move(workload)) {}

  void metric(const std::string& name, double value, const std::string& unit);

  /// Count `n` attempted operations (programs, requests, KV ops, checks).
  void attempt(uint64_t n = 1) { attempted_ += n; }
  /// One failed operation, named in the output.
  void fail(const std::string& what);
  /// Mark the whole run invalid (no operation failed, but the measurement
  /// cannot be trusted).
  void invalid(const std::string& why);

  /// Hash of an input the run generated, so two commits can be shown to
  /// have run identical inputs.
  void fingerprint(const std::string& what, const std::string& hex);
  /// A free-form line for the readable part of the output.
  void note(const std::string& line) { notes_.push_back(line); }

  [[nodiscard]] bool correct() const { return failed_ == 0 && invalid_.empty(); }

  /// Print everything; the JSON object is the last line of stdout.
  void print() const;

 private:
  std::string workload_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< first few, for the output
  std::string invalid_;
  std::vector<std::pair<std::string, std::string>> fingerprints_;
  std::vector<std::string> notes_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

/// CPU time (user + system) of this process so far, in seconds, and its
/// system part and minor page faults.
struct ProcUsage {
  double user_s = 0;
  double sys_s = 0;
  double minor_faults = 0;
  [[nodiscard]] double cpu_s() const { return user_s + sys_s; }
  ProcUsage operator-(const ProcUsage& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s, minor_faults - o.minor_faults};
  }
};
ProcUsage proc_usage();

/// Seconds on a monotonic clock.
double now_s();

}  // namespace perfbench
