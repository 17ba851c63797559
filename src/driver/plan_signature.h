// Canonical structural signature of a compiled program's parallelization
// output — the library's definition of "bit-identical plans".
//
// One deterministic text rendering covers, per loop: the base plan, the
// predicated plan (status, run-time test, privatization/reduction sets,
// degradation, attribution flags) and the driver's Table-2 outcome;
// plus the per-analysis degradation telemetry. Everything in it is
// derived from Sema-assigned deterministic ids (VarDecl::uid, interner
// Symbol ids), so two processes compiling the same source — cold or
// warm, cached or uncached, served from the daemon or run in-process —
// produce byte-equal signatures iff they produced the same plans.
//
// Consumers: the cache/thread coherence test, the persistent summary
// store (one `signature` response record per source, keyed by content
// hash, carries these bytes), the mfcd daemon (responses embed the
// signature so clients can verify equivalence with a local run), and
// the crash-recovery fault-injection suites.
#pragma once

#include <string>

#include "driver/padfa.h"

namespace padfa {

/// Signature of a single plan (appended to `out`); "<none>" when null.
void appendPlanSignature(std::string& out, const LoopPlan* plan);

/// Whole-program signature: every loop in LoopTree order + telemetry.
std::string planSignature(const CompiledProgram& cp);

}  // namespace padfa
