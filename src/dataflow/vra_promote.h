// Static runtime-test discharge (DESIGN.md §15).
//
// For every non-degraded RuntimeTest plan, ask the value-range analysis
// whether the derived independence/privatization test is decidable at
// the loop's entry environment:
//
//   provably TRUE  -> the parallel version is always taken: promote to
//                     Parallel (the dispatch stops paying the test);
//   provably FALSE -> the parallel version is dead code: demote to
//                     Sequential.
//
// Promoted plans RETAIN their runtime_test and are tagged
// VraAction::PromotedParallel so that the PlanAuditor and the race
// oracle can each re-derive the discharge independently — a forged
// promotion surfaces as Unsound and as a reported race, the same teeth
// discipline the audit tripod applies everywhere else.
//
// The pass runs post-persistence (after the deep-plan store replays),
// alongside upgradeDoacrossPlans, so stored bytes stay promotion-
// agnostic and warm plans equal cold plans.
#pragma once

#include "dataflow/loop_plan.h"
#include "vra/vra.h"

namespace padfa {

/// Rewrite `result`'s RuntimeTest plans in place as described above.
/// No-op when `ranges` is disabled. Returns the number of plans changed.
size_t applyVraPromotions(const Program& program, AnalysisResult& result,
                          const vra::RangeAnalysis& ranges);

}  // namespace padfa
