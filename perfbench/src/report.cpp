#include "report.h"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr size_t kFailuresShown = 20;

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    attempt();
    fail(name + " measured no finite value");
    value = 0;
  }
  metrics_[name] = {value, unit};
}

void Result::fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < kFailuresShown) failures_.push_back(what);
}

void Result::invalid(const std::string& why) {
  if (invalid_.empty()) invalid_ = why;
}

void Result::fingerprint(const std::string& what, const std::string& hex) {
  fingerprints_.emplace_back(what, hex);
}

void Result::print() const {
  for (const auto& [what, hex] : fingerprints_)
    std::printf("input %s %s: %s\n", workload_.c_str(), what.c_str(), hex.c_str());
  for (const std::string& line : notes_) std::printf("note %s: %s\n", workload_.c_str(), line.c_str());
  for (const auto& [name, vu] : metrics_)
    std::printf("metric %s %s = %.6g %s\n", workload_.c_str(), name.c_str(),
                vu.first, vu.second.c_str());
  for (const std::string& f : failures_) {
    std::printf("FAIL %s: %s\n", workload_.c_str(), f.c_str());
    std::fprintf(stderr, "FAIL %s: %s\n", workload_.c_str(), f.c_str());
  }
  if (failed_ > failures_.size())
    std::printf("FAIL %s: ... %llu failures in all\n", workload_.c_str(),
                static_cast<unsigned long long>(failed_));
  if (!invalid_.empty()) {
    std::printf("INVALID %s: %s\n", workload_.c_str(), invalid_.c_str());
    std::fprintf(stderr, "INVALID %s: %s\n", workload_.c_str(), invalid_.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, vu] : metrics_) {
    std::snprintf(buf, sizeof buf, "%.17g", vu.first);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            vu.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

ProcUsage proc_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {tv_s(ru.ru_utime), tv_s(ru.ru_stime),
          static_cast<double>(ru.ru_minflt)};
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
