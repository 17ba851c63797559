// Umbrella header + one-call pipeline: MF source -> parsed & analyzed
// program -> baseline and predicated parallelization plans -> execution.
//
// This is the public API a downstream user of the library starts from;
// examples/ and bench/ are built entirely on it.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "dataflow/analysis.h"
#include "interp/interp.h"
#include "ir/region.h"
#include "lang/parser.h"
#include "lang/sema.h"
#include "predicate/pred.h"
#include "runtime/elpd.h"
#include "support/diagnostics.h"
#include "support/table.h"

namespace padfa {

/// A fully analyzed program: AST + loop tree + the two analysis results
/// the paper compares (base SUIF vs predicated array data-flow).
struct CompiledProgram {
  std::unique_ptr<Program> program;
  LoopTree loops;
  AnalysisResult base;
  AnalysisResult pred;

  const Interner& interner() const { return program->interner; }
};

/// Parse + sema + both analyses. Returns nullopt and fills `diags` on
/// frontend errors.
std::optional<CompiledProgram> compileSource(const std::string& source,
                                             DiagEngine& diags);

/// Same, but with explicit budget limits applied to both analyses — the
/// mfcd daemon's per-request deadline path. A governed budget degrades
/// slow loops to sound Sequential/baseline plans instead of hanging the
/// request (and bypasses the feasibility cache, per the degradation
/// contract in perf_stats.h). PADFA_BUDGET_* env overrides still apply
/// on top of `budget`.
std::optional<CompiledProgram> compileSource(const std::string& source,
                                             DiagEngine& diags,
                                             const BudgetLimits& budget);

/// Render the `mfc report` table (per loop: depth, base/predicated
/// status, notes, plus the degradation trailer) to a string — shared by
/// the CLI and the daemon's `report` responses, which must be
/// byte-identical for the same source.
std::string renderPlanReport(const CompiledProgram& cp);

/// Classification of one loop for the evaluation tables.
enum class LoopOutcome {
  BaseParallel,       // base SUIF parallelizes (compile time)
  PredParallelCT,     // newly parallel under predicated analysis, compile time
  PredParallelRT,     // newly parallel under a derived run-time test
  PredDoacross,       // pipelined via post/wait syncs (was Sequential)
  SequentialBoth,     // neither system parallelizes
  NotCandidate,       // I/O, bad step, loop-variant bounds
  NestedInParallel,   // inside a loop parallelized by the same system
};

std::string_view loopOutcomeName(LoopOutcome o);

/// Classify every loop. "Nested" is judged against the *base* plan for
/// base columns and the predicated plan for predicated columns; here we
/// report against predicated (the paper's Table 2 convention: newly
/// parallelized loops exclude loops nested inside other newly
/// parallelized loops only for granularity/coverage, not counts).
LoopOutcome classifyLoop(const CompiledProgram& cp, const ForStmt* loop);

/// Is `loop` strictly inside another loop that `result` parallelizes
/// (status Parallel or RuntimeTest)?
bool nestedInsideParallelized(const CompiledProgram& cp, const ForStmt* loop,
                              const AnalysisResult& result);

}  // namespace padfa
