#include "support/faultpoint.h"

#include <cstdlib>
#include <mutex>

#include "obs/flight.h"

namespace deepmc::support {

namespace {

// Stable order: tests, docs, and --list-fault-points all show this list.
const std::vector<std::string>& point_names() {
  static const std::vector<std::string> kPoints = {
      "parser.read",     // reading/parsing an input .mir file
      "dsa.node-alloc",  // DSA graph node allocation
      "trace.step",      // trace-collection instruction step
      "checker.root",    // static checker per-root entry
      "enum.image",      // crash-image emission in the enumerator
      "interp.step",     // interpreter instruction step
      "serve.accept",    // request acceptance in the analysis server
      "cache.read",      // serve-cache entry read (trip = treated as miss)
      "cache.write",     // serve-cache entry write (trip = entry dropped)
      "load.op",         // workload-engine operation dispatch (deepmc-load)
      "load.crash",      // workload-engine crash-recovery entry
  };
  return kPoints;
}

// The armed plan: counts[i] > 0 arms registered point i. Guarded by a
// mutex (arming happens once at startup / in tests); FaultScope snapshots
// it under the same lock.
std::mutex g_plan_mu;
std::array<int64_t, detail::kMaxFaultPoints> g_plan{};

}  // namespace

namespace detail {

std::atomic<bool> faults_active{false};

thread_local FaultScope* tl_scope = nullptr;

void fault_hit(int idx, const char* name) {
  if (idx < 0) return;
  FaultScope* scope = tl_scope;
  if (scope != nullptr && scope->armed()) scope->hit(idx, name);
}

}  // namespace detail

const std::vector<std::string>& registered_fault_points() {
  return point_names();
}

int fault_point_index(std::string_view name) {
  const auto& pts = point_names();
  for (size_t i = 0; i < pts.size(); ++i)
    if (pts[i] == name) return static_cast<int>(i);
  return -1;
}

void arm_fault(const std::string& spec) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size())
    throw std::invalid_argument("--inject-fault expects name:count, got '" +
                                spec + "'");
  const std::string name = spec.substr(0, colon);
  const int idx = fault_point_index(name);
  if (idx < 0)
    throw std::invalid_argument("unknown fault point '" + name +
                                "' (see --list-fault-points)");
  int64_t count = 0;
  try {
    size_t used = 0;
    count = std::stoll(spec.substr(colon + 1), &used);
    if (used != spec.size() - colon - 1) count = 0;
  } catch (const std::exception&) {
    count = 0;
  }
  if (count < 1)
    throw std::invalid_argument("fault count in '" + spec +
                                "' must be a positive integer");
  {
    std::lock_guard<std::mutex> lock(g_plan_mu);
    g_plan[static_cast<size_t>(idx)] = count;
  }
  detail::faults_active.store(true, std::memory_order_relaxed);
}

bool arm_faults_from_env(std::string* error) {
  const char* env = std::getenv("DEEPMC_FAULTS");
  if (env == nullptr || *env == '\0') return true;
  const std::string value(env);
  // Validate the whole list before arming anything.
  std::vector<std::string> specs;
  size_t start = 0;
  while (start <= value.size()) {
    size_t comma = value.find(',', start);
    if (comma == std::string::npos) comma = value.size();
    std::string spec = value.substr(start, comma - start);
    if (!spec.empty()) specs.push_back(std::move(spec));
    start = comma + 1;
  }
  for (const std::string& spec : specs) {
    const size_t colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == spec.size() ||
        fault_point_index(spec.substr(0, colon)) < 0) {
      if (error != nullptr)
        *error = "DEEPMC_FAULTS: bad spec '" + spec + "'";
      return false;
    }
  }
  try {
    for (const std::string& spec : specs) arm_fault(spec);
  } catch (const std::invalid_argument& e) {
    if (error != nullptr) *error = std::string("DEEPMC_FAULTS: ") + e.what();
    return false;
  }
  return true;
}

void clear_faults() {
  {
    std::lock_guard<std::mutex> lock(g_plan_mu);
    g_plan.fill(0);
  }
  detail::faults_active.store(false, std::memory_order_relaxed);
}

bool any_faults_armed() {
  return detail::faults_active.load(std::memory_order_relaxed);
}

FaultScope::FaultScope() {
  std::lock_guard<std::mutex> lock(g_plan_mu);
  for (size_t i = 0; i < detail::kMaxFaultPoints; ++i) {
    const int64_t count = g_plan[i];
    armed_pt_[i] = count > 0;
    remaining_[i].store(count, std::memory_order_relaxed);
    if (count > 0) armed_any_ = true;
  }
}

void FaultScope::set_cancel(CancelToken token) {
  token_ = std::move(token);
  has_token_ = true;
}

std::string FaultScope::tripped_point() const {
  const int idx = tripped_idx_.load(std::memory_order_acquire);
  if (idx < 0) return {};
  return point_names()[static_cast<size_t>(idx)];
}

void FaultScope::hit(int idx, const char* name) {
  const auto i = static_cast<size_t>(idx);
  if (i >= detail::kMaxFaultPoints || !armed_pt_[i]) return;
  const int64_t prev = remaining_[i].fetch_sub(1, std::memory_order_relaxed);
  if (prev > 1) return;  // not yet the count-th hit
  int expected = -1;
  tripped_idx_.compare_exchange_strong(expected, idx,
                                       std::memory_order_acq_rel);
  obs::flight().record("fault.trip", obs::flight_kv("point", name));
  if (has_token_) token_.cancel(std::string("fault injected: ") + name);
  throw FaultInjected(name);
}

FaultScope* active_fault_scope() { return detail::tl_scope; }

FaultActivation::FaultActivation(FaultScope* scope) : prev_(detail::tl_scope) {
  detail::tl_scope = scope;
}

FaultActivation::~FaultActivation() { detail::tl_scope = prev_; }

}  // namespace deepmc::support
