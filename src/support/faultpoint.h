// Named fault-injection points for resilience testing.
//
// A fault point is a named site in the pipeline that can be forced to
// fail on demand: `DEEPMC_FAULTPOINT("dsa.node-alloc")` compiles to a
// single relaxed atomic load and a never-taken branch when no fault is
// armed, and throws FaultInjected on the count-th hit when armed via
// --inject-fault name:count or DEEPMC_FAULTS=name:count[,name:count].
//
// Determinism contract: the armed plan is global, but countdowns live in
// per-unit FaultScope snapshots installed thread-locally (FaultActivation)
// inside every driver subtask. "name:count" therefore means "the count-th
// hit *within each analysis unit* trips" — which unit fails is a pure
// function of the inputs, never of --jobs scheduling. A trip is sticky:
// once a scope has tripped, every later hit in that scope throws too, so
// sibling subtasks of the failing unit drain quickly.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "support/budget.h"

namespace deepmc::support {

/// Thrown at an armed fault point. `point` is the registered name.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(std::string point)
      : std::runtime_error("fault injected: " + point),
        point_(std::move(point)) {}

  [[nodiscard]] const std::string& point() const { return point_; }

 private:
  std::string point_;
};

/// The canonical registry, in stable order. Adding a point means adding
/// its name here (faultpoint.cpp) and placing a DEEPMC_FAULTPOINT at the
/// site; tests iterate this list to prove every point has coverage.
[[nodiscard]] const std::vector<std::string>& registered_fault_points();

/// Index of `name` in registered_fault_points(), or -1 if unknown.
[[nodiscard]] int fault_point_index(std::string_view name);

/// Arm one fault from a "name:count" spec (count >= 1). Throws
/// std::invalid_argument on an unknown name or malformed spec.
void arm_fault(const std::string& spec);

/// Arm every comma-separated spec in $DEEPMC_FAULTS. Returns false (with
/// a message in *error) on a malformed value; arms nothing in that case.
bool arm_faults_from_env(std::string* error = nullptr);

/// Disarm everything (tests use this between cases).
void clear_faults();

/// True if any fault is currently armed.
[[nodiscard]] bool any_faults_armed();

namespace detail {
inline constexpr size_t kMaxFaultPoints = 16;
extern std::atomic<bool> faults_active;
void fault_hit(int idx, const char* name);
}  // namespace detail

/// Per-unit snapshot of the armed plan. Shared by all subtasks of one
/// analysis unit; the countdown is atomic so parallel trace roots race
/// on *when* the trip happens but not on *whether* this unit trips.
class FaultScope {
 public:
  /// Snapshots the global armed plan at construction.
  FaultScope();

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  /// Couple a cancel token: a trip cancels it so sibling subtasks of the
  /// same unit bail out at their next budget poll.
  void set_cancel(CancelToken token);

  /// True if this scope snapshot has any armed point (cheap gate).
  [[nodiscard]] bool armed() const { return armed_any_; }

  /// Name of the point that tripped in this scope, or "" if none.
  [[nodiscard]] std::string tripped_point() const;

  /// Called from DEEPMC_FAULTPOINT via detail::fault_hit. Throws
  /// FaultInjected when the countdown for `idx` reaches zero.
  void hit(int idx, const char* name);

 private:
  std::array<std::atomic<int64_t>, detail::kMaxFaultPoints> remaining_{};
  std::array<bool, detail::kMaxFaultPoints> armed_pt_{};
  std::atomic<int> tripped_idx_{-1};
  bool armed_any_ = false;
  bool has_token_ = false;
  CancelToken token_;
};

/// This thread's active fault scope, or null when none is installed.
[[nodiscard]] FaultScope* active_fault_scope();

/// RAII: installs `scope` as this thread's active fault scope for the
/// duration (restoring the previous one on destruction). Null is allowed
/// and deactivates fault injection on the thread.
class FaultActivation {
 public:
  explicit FaultActivation(FaultScope* scope);
  ~FaultActivation();

  FaultActivation(const FaultActivation&) = delete;
  FaultActivation& operator=(const FaultActivation&) = delete;

 private:
  FaultScope* prev_;
};

}  // namespace deepmc::support

/// The site macro. Inactive cost: one relaxed load + an untaken branch.
/// The per-site index lookup is a function-local static, resolved once.
#define DEEPMC_FAULTPOINT(name)                                       \
  do {                                                                \
    if (::deepmc::support::detail::faults_active.load(                \
            std::memory_order_relaxed)) {                             \
      static const int deepmc_fp_idx_ =                               \
          ::deepmc::support::fault_point_index(name);                 \
      ::deepmc::support::detail::fault_hit(deepmc_fp_idx_, name);     \
    }                                                                 \
  } while (0)
