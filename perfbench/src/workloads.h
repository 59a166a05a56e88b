// The benchmark's three workloads. Each makes its inputs from cfg.seed,
// measures for about cfg.seconds, checks every output, and records its
// metrics and failures in `out` (README.md has the glossary).
#pragma once

#include "report.h"

namespace perfbench {

/// Seeded generated programs through one crashsim AnalysisDriver run per
/// batch, scored against their planted-bug manifests.
void run_gen_crashsim(const Config& cfg, Result& out);

/// An in-process serve daemon under an open-loop then a closed-loop mix
/// of resubmissions, one-function edits and new modules.
void run_serve_edits(const Config& cfg, Result& out);

/// load::run_load over the four mini frameworks, checker off and shared.
void run_load_checker(const Config& cfg, Result& out);

}  // namespace perfbench
