#include "crash/crashsim.h"

#include <exception>

#include "interp/interp.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "pmem/latency.h"
#include "support/faultpoint.h"

namespace deepmc::crash {

namespace {

// Enumeration is a deterministic walk of one recorded execution, so every
// count below is stable across runs and --jobs values.

obs::Counter stable_counter(const char* name, const char* help) {
  return obs::registry().counter(name, obs::Volatility::kStable, help);
}

void publish_root_obs(const RootCrashSim& out) {
  static obs::Counter roots =
      stable_counter("crash.roots_total", "roots crash-simulated");
  static obs::Counter failed = stable_counter(
      "crash.roots_failed_total", "roots whose pre-crash execution trapped");
  static obs::Counter points = stable_counter(
      "crash.crash_points_total", "crash positions in recorded logs");
  static obs::Counter images =
      stable_counter("crash.images_total", "distinct crash images visited");
  static obs::Counter witnesses = stable_counter(
      "crash.witnesses_total", "ordering/durability witnesses extracted");
  static obs::Counter consistent = stable_counter(
      "crash.images_consistent_total", "images recovery classified consistent");
  static obs::Counter inconsistent = stable_counter(
      "crash.images_inconsistent_total",
      "images recovery classified inconsistent");
  static obs::Counter skipped = stable_counter(
      "crash.images_skipped_total", "images with no applicable oracle");
  static obs::Counter pruned = stable_counter(
      "crash.points_pruned_total", "crash points removed by commit pruning");
  static obs::Counter dup_subsets = stable_counter(
      "crash.duplicate_subsets_total", "subsets collapsing to a seen image");
  static obs::Counter capped = stable_counter(
      "crash.capped_points_total", "crash points hit by the subset cap");
  roots.inc();
  if (!out.executed) failed.inc();
  points.inc(out.stats.crash_points);
  images.inc(out.stats.images);
  witnesses.inc(out.witnesses.size());
  consistent.inc(out.images_consistent);
  inconsistent.inc(out.images_inconsistent);
  skipped.inc(out.images_skipped);
  pruned.inc(out.stats.points_pruned);
  dup_subsets.inc(out.stats.duplicate_subsets);
  capped.inc(out.stats.capped_points);
}

}  // namespace

RootCrashSim simulate_root(const ir::Module& module, const ir::Function& root,
                           const CrashSimOptions& opts) {
  obs::Span root_span("crashsim.root", "crash",
                      obs::span_arg("root", root.name()));
  RootCrashSim out;
  out.root = root.name();

  pmem::PmPool pool(opts.pool_bytes, pmem::LatencyModel::zero());
  EventRecorder recorder(pool);
  {
    obs::Span exec_span("crashsim.execute", "crash");
    interp::Interpreter::Options iopts;
    iopts.max_steps = opts.max_steps;
    if (opts.interp_step_budget > 0 && opts.interp_step_budget < iopts.max_steps)
      iopts.max_steps = opts.interp_step_budget;
    iopts.cancel = opts.cancel;
    interp::Interpreter interp(module, pool, /*runtime=*/nullptr, iopts);
    try {
      interp.run(root);
      out.executed = true;
    } catch (const support::FaultInjected&) {
      throw;  // resilience-layer signals classify the unit, not the root
    } catch (const support::CancelledError&) {
      throw;
    } catch (const support::BudgetExceeded&) {
      throw;
    } catch (const interp::StepLimitReached& e) {
      // With an explicit budget this is a degradation signal; without one
      // it is the pre-existing safety net and stays a per-root trap.
      if (opts.interp_step_budget > 0)
        throw support::BudgetExceeded("interp.steps", e.limit());
      out.error = e.what();
    } catch (const std::exception& e) {
      out.error = e.what();
    }
  }
  recorder.detach();  // recovery replay below must not extend the log
  const EventLog log = recorder.take_log();
  if (!out.executed) {
    if (obs::enabled()) publish_root_obs(out);
    return out;
  }

  {
    obs::Span witness_span("crashsim.witness", "crash");
    out.witnesses = analyze_log(log, opts.model);
  }

  const std::unique_ptr<RecoveryOracle> oracle = make_oracle(opts.framework);
  Enumerator::Options eopts;
  eopts.model = opts.model;
  eopts.granularity = Granularity::kStoreRange;
  eopts.include_dirty = true;
  eopts.max_subset_bits = opts.max_subset_bits;
  // Per-root meter: this enumeration covers exactly one root's log.
  support::Budget image_budget("enum.images", opts.image_budget);
  image_budget.set_cancel(opts.cancel);
  eopts.image_budget = &image_budget;
  const Enumerator enumerator(log, eopts);
  obs::Span enum_span("crashsim.enumerate", "crash");
  out.stats = enumerator.enumerate([&](const CrashImage& image) {
    if (!oracle) {
      ++out.images_skipped;
      return;
    }
    // A fresh pool per image: the image domain covers every line the
    // execution touched, and untouched lines are identical between a fresh
    // pool and the crashed one, so this reproduces the post-crash persisted
    // state exactly without cross-image contamination.
    pmem::PmPool replay_pool(opts.pool_bytes, pmem::LatencyModel::zero());
    switch (oracle->classify(replay_pool, image, {})) {
      case RecoveryOutcome::kConsistent:
        ++out.images_consistent;
        break;
      case RecoveryOutcome::kInconsistent:
        ++out.images_inconsistent;
        break;
      case RecoveryOutcome::kSkipped:
        ++out.images_skipped;
        break;
    }
  });
  if (obs::enabled()) publish_root_obs(out);
  return out;
}

}  // namespace deepmc::crash
