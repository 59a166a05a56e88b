// Deterministic step budgets and cooperative cancellation.
//
// The paper keeps DeepMC's analyses terminating by bounding loop
// iterations and inlining depth (§3.2); this header adds the driver-side
// enforcement: every stage charges work units against a Budget, and a
// pathological unit trips a BudgetExceeded instead of stalling the corpus
// run. Two rules keep reports byte-identical at any --jobs:
//
//  1. Budgets are per-invocation (one Budget per trace root, per DSA run,
//     per enumeration), never shared across parallel subtasks — a shared
//     counter would make the trip point depend on scheduling.
//  2. The wall-clock watchdog only *cancels* (via CancelToken); it never
//     decides a unit's classification on its own, so timing noise cannot
//     change what a report says about an unaffected unit.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/flight.h"

namespace deepmc::support {

/// Thrown by Budget::charge when a deterministic step budget runs out.
/// `stage` names the meter that tripped (e.g. "trace.steps", "dsa.steps",
/// "enum.images", "interp.steps").
class BudgetExceeded : public std::runtime_error {
 public:
  BudgetExceeded(std::string stage, uint64_t limit)
      : std::runtime_error("budget exceeded: " + stage + " (limit " +
                           std::to_string(limit) + ")"),
        stage_(std::move(stage)),
        limit_(limit) {}

  [[nodiscard]] const std::string& stage() const { return stage_; }
  [[nodiscard]] uint64_t limit() const { return limit_; }

 private:
  std::string stage_;
  uint64_t limit_;
};

/// Thrown by Budget::charge when the attached CancelToken fires. The
/// reason is the token's (first-cancel-wins) reason string.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(std::string reason)
      : std::runtime_error("cancelled: " + reason),
        reason_(std::move(reason)) {}

  [[nodiscard]] const std::string& reason() const { return reason_; }

 private:
  std::string reason_;
};

/// Cooperative cancellation flag shared between the driver and every stage
/// it fans out. Copyable; all copies observe the same flag. The first
/// cancel() wins the reason; later calls are no-ops. An optional armed
/// deadline turns check() into the wall-clock watchdog: the first check
/// past the deadline cancels the token — no timer thread, no signals.
class CancelToken {
 public:
  CancelToken() : state_(std::make_shared<State>()) {}

  void cancel(const std::string& reason) const {
    bool expected = false;
    if (state_->cancelled.compare_exchange_strong(expected, true,
                                                  std::memory_order_acq_rel)) {
      // Only the CAS winner writes the reason; readers gate on the
      // release/acquire pair on reason_set before touching the string.
      state_->reason = reason;
      state_->reason_set.store(true, std::memory_order_release);
      // First-cancel-wins is exactly the moment a post-mortem wants
      // pinned: the watchdog firing (or a fault's cancel) lands in the
      // flight recorder once, with the winning reason.
      obs::flight().record("cancel", {{"reason", reason}});
    }
  }

  [[nodiscard]] bool cancelled() const {
    return state_->cancelled.load(std::memory_order_acquire);
  }

  /// Reason for the cancellation; empty until the winner publishes it.
  [[nodiscard]] std::string reason() const {
    if (!state_->reason_set.load(std::memory_order_acquire)) return {};
    return state_->reason;
  }

  /// Arm the wall-clock watchdog: check() calls at or past the deadline
  /// cancel the token with a "wall-clock budget exceeded" reason.
  void arm_deadline(std::chrono::milliseconds budget) const {
    arm_deadline_at(std::chrono::steady_clock::now() + budget);
  }

  /// Absolute-deadline variant: lets a caller holding one request-wide
  /// deadline (serve per-request timeouts) arm successive tokens against
  /// the same wall-clock point, so retries never extend the total bound.
  void arm_deadline_at(std::chrono::steady_clock::time_point deadline) const {
    state_->deadline = deadline;
    state_->deadline_armed.store(true, std::memory_order_release);
  }

  /// Throws CancelledError if the token has fired (or the armed deadline
  /// has passed). Cheap when it hasn't; callers amortise it anyway.
  void check() const {
    if (cancelled()) throw CancelledError(reason());
    if (state_->deadline_armed.load(std::memory_order_acquire) &&
        std::chrono::steady_clock::now() >= state_->deadline) {
      cancel("wall-clock budget exceeded");
      throw CancelledError(reason());
    }
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    std::atomic<bool> reason_set{false};
    std::string reason;
    std::atomic<bool> deadline_armed{false};
    std::chrono::steady_clock::time_point deadline{};
  };
  std::shared_ptr<State> state_;
};

/// A per-invocation work meter. Not thread-safe by design: each parallel
/// subtask gets its own Budget so trip points are a pure function of the
/// work done, not of scheduling. Default-constructed budgets are
/// unlimited and still propagate cancellation if given a token.
class Budget {
 public:
  Budget() = default;

  /// `limit` == 0 means unlimited.
  Budget(std::string stage, uint64_t limit) : stage_(std::move(stage)) {
    set_limit(limit);
  }

  void set_limit(uint64_t limit) {
    limit_ = limit;
    remaining_ = limit == 0 ? kUnlimited : limit;
  }

  void set_cancel(CancelToken token) {
    token_ = std::move(token);
    has_token_ = true;
  }

  [[nodiscard]] bool limited() const { return remaining_ != kUnlimited; }
  [[nodiscard]] uint64_t limit() const { return limit_; }
  [[nodiscard]] uint64_t used() const { return used_; }
  [[nodiscard]] const std::string& stage() const { return stage_; }

  /// Charge `n` units of work. Throws BudgetExceeded when the meter runs
  /// out and CancelledError when the attached token has fired. The cancel
  /// and deadline checks are amortised (every kPollMask+1 charges) so the
  /// hot path is a decrement and a branch.
  void charge(uint64_t n = 1) {
    used_ += n;
    if ((used_ & kPollMask) < n) poll_slow();
    if (remaining_ == kUnlimited) return;
    if (n > remaining_) {
      remaining_ = 0;
      throw BudgetExceeded(stage_, limit_);
    }
    remaining_ -= n;
  }

  /// Immediate cancellation check (used at coarse boundaries where the
  /// amortised poll in charge() is too lazy, e.g. per trace root).
  void check_cancel() const {
    if (has_token_) token_.check();
  }

 private:
  static constexpr uint64_t kUnlimited = ~uint64_t{0};
  static constexpr uint64_t kPollMask = 0xFFF;  // poll every 4096 charges

  void poll_slow() const;  // cold path: deadline poll + cancel check

  std::string stage_ = "budget";
  uint64_t limit_ = 0;
  uint64_t remaining_ = kUnlimited;
  uint64_t used_ = 0;
  bool has_token_ = false;
  CancelToken token_;
};

}  // namespace deepmc::support
