// The (predicated) interprocedural array data-flow analysis.
//
// A single implementation covers both systems evaluated in the paper:
//  * the SUIF baseline = AnalysisConfig::baseline() (no predicates);
//  * predicated array data-flow analysis = AnalysisConfig::predicated().
// Feature flags also enable the ablations (embedding only, extraction
// only, no run-time tests) benchmarked in bench/.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "dataflow/loop_plan.h"
#include "dataflow/summary.h"
#include "lang/ast.h"
#include "support/budget.h"
#include "support/fault_injection.h"

namespace padfa {

/// Replay hook for incremental re-analysis (ipa/incremental.h). When
/// installed, a procedure in `replay` is not analyzed: its finalized
/// summary and its loops' plans come from `load`, which must recreate
/// the summary's VarIds in the analyzer's VarTable in cold-run creation
/// order (the deep codec's variable preamble does this). The loaded
/// plans enter the result as they are. A `load` failure falls back to
/// full analysis of that procedure, so replay is never load-bearing for
/// soundness, only for speed.
///
/// Installing a preload also exports the finalized per-procedure
/// summaries and the VarTable view into AnalysisResult
/// (proc_summaries/vars), so the caller can persist fresh procedures.
struct SummaryPreload {
  std::set<const ProcDecl*> replay;
  std::function<bool(const ProcDecl*, VarTable&, RegionSummary&,
                     std::vector<LoopPlan>&)>
      load;
  /// Out-param: the procedures whose summaries actually replayed.
  std::set<const ProcDecl*>* replayed = nullptr;
};

struct AnalysisConfig {
  /// Attach branch predicates to data-flow values (Section 4).
  bool predicates = true;
  /// Predicate embedding: absorb affine guard constraints into array
  /// section systems (Section 5.1).
  bool embedding = true;
  /// Predicate extraction: derive breaking conditions by projecting
  /// dependence systems onto symbolic parameters (Section 5.2).
  bool extraction = true;
  /// Emit two-version loops guarded by run-time tests (Section 5.3).
  bool runtime_tests = true;
  /// Allow privatization of arrays with upward-exposed reads by
  /// initializing private copies from shared memory. The base SUIF system
  /// is conservative here; the predicated system reasons about exactly
  /// which elements stay exposed, making copy-in privatization safe.
  bool copy_in_privatization = true;

  /// Resource governance. The analysis never crashes on exhaustion: loops
  /// whose analysis blows a budget are conservatively kept sequential and
  /// flagged `degraded` in their LoopPlan. Defaults are unlimited (plus a
  /// deep recursion backstop) and are refined by PADFA_BUDGET_* env vars.
  BudgetLimits budget = BudgetLimits::defaults();
  /// Optional fault injector forcing synthetic exhaustion at probe points
  /// (testing only; when null, PADFA_FAULT_RATE can configure one).
  FaultInjector* injector = nullptr;

  /// Optional summary-replay hook (see SummaryPreload). Not owned; must
  /// outlive the analyzeProgram() call.
  const SummaryPreload* preload = nullptr;

  static AnalysisConfig baseline() {
    return {false, false, false, false, false};
  }
  static AnalysisConfig predicated() { return {true, true, true, true, true}; }
  /// Predicates for compile-time analysis only — models the prior
  /// guarded-analysis work the paper compares against (Gu/Li/Lee).
  static AnalysisConfig compileTimeOnly() {
    return {true, true, true, false, true};
  }
};

/// Run the analysis over an analyzed program (Sema must have succeeded).
AnalysisResult analyzeProgram(Program& program, const AnalysisConfig& config);

}  // namespace padfa
