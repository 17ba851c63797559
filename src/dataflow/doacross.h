// Doacross classification: the post-analysis upgrade pass that turns a
// Sequential plan into a pipelined-parallel (Doacross) plan when every
// residual carried dependence has a provably-constant iteration
// distance, following the post/wait synchronization model of
// "Optimizing Synchronization Algorithm for Auto-parallelizing
// Compiler" (arXiv:1211.4101). See DESIGN.md §14.
//
// The pass runs AFTER plan persistence (both in compileSource and in
// the incremental path), so the deep-plan store only ever sees
// pre-upgrade plans and warm replays stay byte-identical to cold runs:
// the upgrade is a deterministic function of the (replayed) plan's
// status + reason + AST, re-applied on every compile.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "dataflow/loop_plan.h"
#include "lang/ast.h"

namespace padfa {

namespace vra {
class RangeAnalysis;
}

/// Statement-order facts about one loop body, shared by the
/// redundant-sync-elimination rule and the PlanAuditor's independent
/// re-check of eliminated requirements.
struct SyncOrderInfo {
  /// Pre-order position of every statement in the loop body (the
  /// audited procedure only — inlined callee statements anchor to their
  /// call statement, which IS in this map).
  std::map<const Stmt*, int> pos;
  /// Statements guaranteed to execute exactly once per iteration (no If
  /// or For ancestor inside the body).
  std::set<const Stmt*> unconditional;
  /// Statements whose post fires immediately after each execution (no
  /// For ancestor inside the body; a statement nested in an inner loop
  /// executes many times per iteration, so its post is deferred to the
  /// end of the iteration).
  std::set<const Stmt*> immediate_post;
};

SyncOrderInfo buildSyncOrderInfo(const ForStmt& loop);

/// The loop's constant positive step, when it is a literal (or absent,
/// = 1). Nullopt for symbolic / non-positive steps — such loops are
/// never Doacross candidates. Sync distances are stored in ITERATION
/// ordinals; the conflict scanner's geometry works in INDEX space, so
/// an index distance D corresponds to ordinal distance D / step (and
/// must divide exactly — index values are lo + k*step, so it always
/// does for real dependences). The auditor applies the same conversion
/// before matching against plan.syncs.
std::optional<int64_t> doacrossConstStep(const ForStmt& loop);

/// Is requirement `req` implied by the non-eliminated requirements in
/// `kept` (excluding any entry identical to `req`) plus intra-iteration
/// program order? Exact rule in DESIGN.md §14; conservative — false
/// negatives only. Exported so the PlanAuditor can re-verify every
/// eliminated requirement independently of this pass.
bool syncRequirementCovered(const SyncRequirement& req,
                            const std::vector<SyncRequirement>& kept,
                            const SyncOrderInfo& info);

/// Try to upgrade one plan in place. Returns true when the plan became
/// Doacross (status rewritten, `syncs` filled, reason kept). Candidates
/// are non-degraded Sequential plans whose reason is the array-phase
/// "loop-carried dependence on array ..." verdict; everything else is
/// left untouched.
///
/// When `ranges` is a live value-range analysis, the profitability guard
/// (DESIGN.md §15) additionally rejects upgrades that pipeline at a
/// loss — a provably sub-2-trip loop, or a pure recurrence with no
/// independent prefix, where a distance-1 sync from the last statement
/// to the first serializes every iteration. Rejected plans stay
/// Sequential and are tagged VraAction::DoacrossCost. With `ranges`
/// null (VRA disabled) the guard is off and behavior is bit-identical
/// to the pre-VRA upgrade.
bool classifyDoacross(const Program& program, LoopPlan& plan,
                      const vra::RangeAnalysis* ranges = nullptr);

/// The driver post-pass: attempt the upgrade on every candidate plan of
/// a (predicated) analysis result.
void upgradeDoacrossPlans(const Program& program, AnalysisResult& result,
                          const vra::RangeAnalysis* ranges = nullptr);

}  // namespace padfa
