// Trace oracle: turns a recorded execution into crash *witnesses* — the
// rule a reachable crash image provably violates, tagged with the source
// locations responsible.
//
// This is the dynamic half of end-to-end warning validation: the static
// checker names a suspicious line; a witness whose culprit set contains that
// line shows an actual reachable crash image gone wrong, upgrading the
// warning to `validation: confirmed`. The rules mirror the paper's
// persistency-model-violation taxonomy (Table 4), but operate on the event
// log rather than on MIR:
//
//  A crash.rollback-exposure    unlogged store inside a logging transaction:
//                               a crash mid-transaction rolls back the log
//                               yet the stray store may already be home.
//  B crash.unfenced-boundary    store flushed but not fenced across a
//                               region boundary (or still in flight at the
//                               end of execution): durability was assumed
//                               where only ordering-free staging exists.
//  C crash.torn-fence-group     one fence seals flushed stores to several
//                               distinct allocations: a crash at the fence
//                               can persist any strict subset, tearing the
//                               multi-object update.
//  D crash.cross-region-tear    two consecutive sibling regions update
//                               disjoint parts of the same allocation: a
//                               crash between them exposes a half-updated
//                               object that neither region's recovery owns.
//  E crash.order-inversion      (strict model) a store never flushed while a
//                               program-later store is already durable:
//                               persist order inverted program order.
//  F crash.region-exit-unflushed  store dirty in cache after its region
//                               completed: the region's durability contract
//                               ended with the data still volatile.
//
// The oracle abstains on bare stores with no flush, no region, and no later
// durable store: with no durability intent expressed there is no contract to
// violate (this keeps declared-external no-op flush helpers from producing
// false confirmations).
#pragma once

#include <string>
#include <vector>

#include "core/model.h"
#include "crash/enumerator.h"

namespace deepmc::crash {

struct Witness {
  std::string rule;                ///< crash.* rule id (see header comment)
  std::vector<SourceLoc> culprits; ///< locations this witness implicates
};

/// Analyze one recorded root execution. Deterministic: witnesses are emitted
/// rule-by-rule (A..F) in event order.
std::vector<Witness> analyze_log(const EventLog& log,
                                 core::PersistencyModel model);

}  // namespace deepmc::crash
