// Parallelization decisions per loop — the analysis output consumed by
// the interpreter/runtime and by the evaluation harness.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "dataflow/summary.h"
#include "lang/ast.h"
#include "predicate/pred.h"

namespace padfa {

enum class LoopStatus : uint8_t {
  Parallel,      // provably parallel at compile time
  RuntimeTest,   // two-version loop guarded by a derived run-time test
  Sequential,    // dependence (or un-analyzable) — stays sequential
  NotCandidate,  // I/O (sink), loop-variant bounds, non-positive step
  // Pipelined parallel: every residual carried dependence has a
  // provably-constant iteration distance, enforced at run time by
  // post/wait synchronization (LoopPlan::syncs). Deliberately ordered
  // after NotCandidate: the deep-plan store only ever persists
  // pre-upgrade plans, and its codec rejects any status beyond
  // NotCandidate, which keeps stored bytes upgrade-agnostic.
  Doacross,
};

std::string_view loopStatusName(LoopStatus s);

/// What the value-range promotion pass (dataflow/vra_promote.h) did to a
/// plan, if anything. Never serialized: promotions run post-persistence
/// (after store replay), exactly like the Doacross upgrade, so warm and
/// cold plans stay byte-identical.
enum class VraAction : uint8_t {
  None,
  /// RuntimeTest whose derived test is provably true under the inferred
  /// ranges: dispatched as Parallel. The test itself is RETAINED in
  /// `runtime_test` so the auditor and the race oracle can each
  /// re-verify the discharge independently.
  PromotedParallel,
  /// RuntimeTest whose derived test is provably false: the parallel
  /// version is dead code, only the sequential version ships.
  DemotedSequential,
  /// Doacross candidate rejected by the profitability guard (pure
  /// recurrence with no independent prefix, or a provably short trip
  /// count): kept Sequential.
  DoacrossCost,
};

std::string_view vraActionName(VraAction a);

/// How an array must be handled in the parallel version of a loop.
struct PrivatizedArray {
  const VarDecl* array = nullptr;
  bool copy_in = false;   // exposed reads exist: initialize private copies
  bool copy_out = false;  // live after loop: last iteration writes back
};

enum class ReductionOp : uint8_t { Sum, Prod, Min, Max };

struct ScalarReduction {
  const VarDecl* scalar = nullptr;
  ReductionOp op = ReductionOp::Sum;
};

/// One post/wait obligation of a Doacross plan: before `sink` executes
/// in iteration i, `source` must have completed iteration i - distance.
/// Source and sink are the anchor statements of the conflicting access
/// pair; the distance is the constant value of the Presburger
/// projection onto i2 - i1 (always >= 1).
struct SyncRequirement {
  const Stmt* source = nullptr;
  const Stmt* sink = nullptr;
  int64_t distance = 0;
  /// Transitively implied by the kept requirements plus intra-iteration
  /// program order (the redundant-sync-elimination rule, DESIGN.md §14);
  /// recorded for reporting and auditing but not enforced at run time.
  bool eliminated = false;
};

struct LoopPlan {
  const ForStmt* loop = nullptr;
  const ProcDecl* proc = nullptr;
  LoopStatus status = LoopStatus::Sequential;

  /// Run-time independence/privatization test (status == RuntimeTest).
  /// True atoms evaluate against scalar values at loop entry.
  Pred runtime_test;

  /// Arrays privatized in the parallel version.
  std::vector<PrivatizedArray> privatized;
  /// Scalars privatized in the parallel version (loop index excluded;
  /// each entry may also need last-value copy-out).
  std::vector<const VarDecl*> private_scalars;
  std::vector<const VarDecl*> copy_out_scalars;
  std::vector<ScalarReduction> reductions;

  /// Human-readable reason when Sequential / NotCandidate. A Doacross
  /// plan keeps the Sequential reason it was upgraded from (it documents
  /// why the loop is not fully DOALL).
  std::string reason;

  /// Post/wait requirements (status == Doacross), deduplicated and
  /// ordered by (source position, sink position, distance). Entries
  /// marked `eliminated` are implied by the rest and not enforced.
  std::vector<SyncRequirement> syncs;

  /// Kept (non-eliminated) sync count, for reports.
  size_t keptSyncCount() const {
    size_t n = 0;
    for (const auto& s : syncs) n += s.eliminated ? 0 : 1;
    return n;
  }

  /// Value-range promotion applied to this plan (see VraAction). For
  /// PromotedParallel plans `runtime_test` still holds the discharged
  /// test — it documents the proof obligation and lets every
  /// verification leg re-derive the promotion.
  VraAction vra_action = VraAction::None;

  /// True when the plan is a fallback forced by resource budget
  /// exhaustion (or injected faults) rather than a full analysis verdict.
  /// The analysis itself only ever emits degraded plans as Sequential;
  /// the driver may substitute the (independently sound) baseline plan
  /// for a degraded predicated one, keeping this flag for telemetry.
  bool degraded = false;
  /// Which budget gave out (see budgetCauseName), when degraded.
  std::string degrade_cause;

  // Attribution flags for the evaluation's per-loop categories.
  bool used_predicates = false;   // guards were needed to pass a test
  bool used_embedding = false;    // guard constraints embedded in sections
  bool used_extraction = false;   // breaking condition from FM projection
  bool used_reshape = false;      // interprocedural reshape predicate
  bool priv_used = false;         // privatization was required
};

/// VarId-indexed view of the analyzer's VarTable, exported for the deep
/// summary codec (store/deep_codec.h) when AnalysisConfig::preload is
/// installed.
struct ExportedVarTable {
  /// VarId -> program decl; null for subscript dims and synthetic vars.
  std::vector<const VarDecl*> decls;
  /// Forward-substitution aliases installed during the analysis
  /// (VarTable::setAlias), needed to reproduce affine reasoning over a
  /// replayed procedure's guards in its callers.
  std::map<pb::VarId, pb::LinExpr> aliases;
};

/// Results of analyzing a whole program.
struct AnalysisResult {
  std::map<const ForStmt*, LoopPlan> plans;
  /// Wall-clock cost of the analysis itself (Experiment E6).
  double analysis_seconds = 0;

  /// Which callee summaries each procedure's analysis consumed (one entry
  /// per non-sink call target, deduplicated). Always recorded — it is a
  /// set insert per call statement — and consumed by the ipa layer
  /// (change-impact consistency checks, `mfc deps --callgraph`).
  std::map<const ProcDecl*, std::set<const ProcDecl*>> summary_deps;

  /// Finalized per-procedure summaries + the VarTable view needed to
  /// serialize them; filled only when AnalysisConfig::preload is set.
  std::map<const ProcDecl*, RegionSummary> proc_summaries;
  ExportedVarTable vars;

  // --- degradation telemetry (resource governance) ---
  /// Exhaustion causes observed during this analysis, with counts.
  std::map<std::string, uint64_t> exhaustion_causes;
  /// True when a sticky (global) budget cause fired; the remainder of the
  /// analysis after that point is wholly conservative.
  bool degraded_globally = false;
  /// Budget meters at the end of the analysis (0 when no budget active).
  uint64_t fm_steps = 0;
  uint64_t constraints_built = 0;
  uint64_t pieces_touched = 0;

  const LoopPlan* planFor(const ForStmt* loop) const {
    auto it = plans.find(loop);
    return it == plans.end() ? nullptr : &it->second;
  }

  /// Number of plans carrying the `degraded` flag.
  size_t degradedCount() const;
};

}  // namespace padfa
