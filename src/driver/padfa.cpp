#include "driver/padfa.h"

#include <cstdio>
#include <memory>
#include <set>

#include "dataflow/doacross.h"
#include "dataflow/vra_promote.h"
#include "runtime/thread_pool.h"
#include "vra/vra.h"

namespace padfa {

std::optional<CompiledProgram> compileSource(const std::string& source,
                                             DiagEngine& diags) {
  return compileSource(source, diags, BudgetLimits::defaults());
}

std::optional<CompiledProgram> compileSource(const std::string& source,
                                             DiagEngine& diags,
                                             const BudgetLimits& budget) {
  auto cp = runFrontend(source, diags);
  if (!cp) return std::nullopt;
  runAnalysisPair(*cp, budget);
  runRefinement(*cp, budget);
  return cp;
}

std::optional<CompiledProgram> runFrontend(const std::string& source,
                                           DiagEngine& diags) {
  auto program = parseProgram(source, diags);
  if (!program) return std::nullopt;
  if (!analyze(*program, diags)) return std::nullopt;
  CompiledProgram cp;
  cp.loops = LoopTree::build(*program);
  cp.program = std::move(program);
  return cp;
}

void runAnalysisPair(CompiledProgram& cp, const BudgetLimits& budget,
                     const SummaryPreload* base_preload,
                     const SummaryPreload* pred_preload) {
  // The two analyses are independent reads of the immutable Program:
  // each installs its own thread-local AnalysisBudget, so they can run
  // concurrently. Baseline goes to the pool (inline when already on a
  // pool worker — e.g. program-parallel corpus drivers); predicated,
  // typically the more expensive of the pair, runs on the caller.
  Program& prog = *cp.program;
  AnalysisConfig base_cfg = AnalysisConfig::baseline();
  base_cfg.budget = budget;
  base_cfg.preload = base_preload;
  AnalysisConfig pred_cfg = AnalysisConfig::predicated();
  pred_cfg.budget = budget;
  pred_cfg.preload = pred_preload;
  std::future<AnalysisResult> base_fut = analysisPool().submit(
      [&prog, base_cfg] { return analyzeProgram(prog, base_cfg); });
  cp.pred = analyzeProgram(prog, pred_cfg);
  cp.base = base_fut.get();
  // Graceful degradation ladder: a loop whose *predicated* analysis blew
  // its budget falls back to the baseline plan for that loop when the
  // baseline completed (it is independently sound); the fallback keeps
  // the degraded flag for telemetry. A degraded baseline plan stays
  // Sequential — the bottom of the ladder is "no parallel loops".
  for (auto& [loop, pplan] : cp.pred.plans) {
    if (!pplan.degraded) continue;
    const LoopPlan* bplan = cp.base.planFor(loop);
    if (!bplan || bplan->degraded) continue;
    std::string cause = std::move(pplan.degrade_cause);
    pplan = *bplan;
    pplan.degraded = true;
    pplan.degrade_cause = std::move(cause);
  }
}

void runRefinement(CompiledProgram& cp, const BudgetLimits& budget) {
  // Doacross upgrade + value-range promotion: run last (after the ladder,
  // and in the incremental path after persistence) so stored plans are
  // always pre-upgrade and warm replays stay byte-identical — see
  // dataflow/doacross.h and dataflow/vra_promote.h. Value ranges are
  // skipped under a governed budget: plans may then be degraded
  // fallbacks, and refinement of a degraded run must stay inert so the
  // degradation ladder's output is the final word.
  Program& prog = *cp.program;
  std::unique_ptr<vra::RangeAnalysis> ranges;
  if (!BudgetLimits::fromEnv(budget).governed() && vra::vraEnabled())
    ranges = std::make_unique<vra::RangeAnalysis>(prog);
  const vra::RangeAnalysis* rp =
      ranges && ranges->enabled() ? ranges.get() : nullptr;
  upgradeDoacrossPlans(prog, cp.pred, rp);
  if (rp) applyVraPromotions(prog, cp.pred, *rp);
}

std::string renderPlanReport(const CompiledProgram& cp) {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%-16s %-6s %-14s %-14s %s\n", "loop",
                "depth", "base", "predicated", "notes");
  out += buf;
  for (const LoopNode* node : cp.loops.allLoops()) {
    const LoopPlan* bp = cp.base.planFor(node->loop);
    const LoopPlan* pp = cp.pred.planFor(node->loop);
    if (!bp || !pp) continue;
    std::string notes;
    if (pp->status == LoopStatus::RuntimeTest) {
      notes = "test: " + pp->runtime_test.str(cp.interner());
    } else if (pp->status == LoopStatus::Doacross) {
      std::set<int64_t> dists;
      for (const auto& s : pp->syncs)
        if (!s.eliminated) dists.insert(s.distance);
      notes = "[syncs " + std::to_string(pp->syncs.size()) + "->" +
              std::to_string(pp->keptSyncCount()) + " d={";
      bool first = true;
      for (int64_t d : dists) {
        if (!first) notes += ',';
        notes += std::to_string(d);
        first = false;
      }
      notes += "}]";
    } else if (pp->status == LoopStatus::Sequential) {
      notes = pp->reason;
    }
    if (pp->vra_action == VraAction::PromotedParallel)
      notes += "[vra: test discharged " +
               pp->runtime_test.str(cp.interner()) + "]";
    else if (pp->vra_action != VraAction::None)
      notes += " [vra: " + std::string(vraActionName(pp->vra_action)) + "]";
    if (pp->degraded || bp->degraded)
      notes += " [degraded: " +
               (pp->degraded ? pp->degrade_cause : bp->degrade_cause) + "]";
    for (const auto& pa : pp->privatized) {
      notes += " [private " +
               std::string(cp.interner().str(pa.array->name)) +
               (pa.copy_in ? "+in" : "") + (pa.copy_out ? "+out" : "") + "]";
    }
    for (const auto& red : pp->reductions)
      notes += " [reduction " +
               std::string(cp.interner().str(red.scalar->name)) + "]";
    std::snprintf(buf, sizeof(buf), "%-16s %-6d %-14s %-14s %s\n",
                  node->loop->loop_id.c_str(), node->depth,
                  std::string(loopStatusName(bp->status)).c_str(),
                  std::string(loopStatusName(pp->status)).c_str(),
                  notes.c_str());
    out += buf;
  }
  size_t degraded = cp.base.degradedCount() + cp.pred.degradedCount();
  if (degraded > 0) {
    std::snprintf(buf, sizeof(buf),
                  "\n%zu degraded plan(s) — analysis budget exhaustion:",
                  degraded);
    out += buf;
    std::map<std::string, uint64_t> causes;
    for (const auto* r : {&cp.base, &cp.pred})
      for (const auto& [cause, n] : r->exhaustion_causes) causes[cause] += n;
    for (const auto& [cause, n] : causes)
      out += " " + cause + "=" + std::to_string(n);
    out += '\n';
  }
  return out;
}

std::string_view loopOutcomeName(LoopOutcome o) {
  switch (o) {
    case LoopOutcome::BaseParallel: return "base-parallel";
    case LoopOutcome::PredParallelCT: return "pred-parallel-ct";
    case LoopOutcome::PredParallelRT: return "pred-parallel-rt";
    case LoopOutcome::PredDoacross: return "pred-doacross";
    case LoopOutcome::SequentialBoth: return "sequential";
    case LoopOutcome::NotCandidate: return "not-candidate";
    case LoopOutcome::NestedInParallel: return "nested-in-parallel";
  }
  return "?";
}

bool nestedInsideParallelized(const CompiledProgram& cp, const ForStmt* loop,
                              const AnalysisResult& result) {
  const LoopNode* node = cp.loops.nodeFor(loop);
  for (const LoopNode* p = node ? node->parent : nullptr; p; p = p->parent) {
    const LoopPlan* plan = result.planFor(p->loop);
    if (plan && (plan->status == LoopStatus::Parallel ||
                 plan->status == LoopStatus::RuntimeTest))
      return true;
  }
  return false;
}

bool isCandidate(const CompiledProgram& cp, const ForStmt* loop) {
  const LoopPlan* bp = cp.base.planFor(loop);
  return bp && bp->status == LoopStatus::Sequential &&
         !nestedInsideParallelized(cp, loop, cp.base);
}

RaceOracle runElpd(const CompiledProgram& cp) {
  RaceOracle elpd;
  for (const LoopNode* node : cp.loops.allLoops())
    if (isCandidate(cp, node->loop)) elpd.instrument(node->loop);
  InterpOptions opt;
  opt.race = &elpd;
  execute(*cp.program, opt);
  return elpd;
}

std::string renderElpdReport(const CompiledProgram& cp) {
  RaceOracle elpd = runElpd(cp);
  std::string out;
  char buf[256];
  for (const LoopNode* node : cp.loops.allLoops()) {
    if (!elpd.isInstrumented(node->loop)) continue;
    RaceOracle::LoopVerdict v = elpd.verdict(node->loop);
    std::snprintf(buf, sizeof(buf), "%-16s %s\n",
                  node->loop->loop_id.c_str(),
                  !v.executed        ? "did not execute"
                  : v.independent()  ? "independent"
                  : v.privatizable() ? "privatizable"
                                     : "not parallel (cross-iteration flow)");
    out += buf;
  }
  return out;
}

LoopOutcome classifyLoop(const CompiledProgram& cp, const ForStmt* loop) {
  const LoopPlan* bp = cp.base.planFor(loop);
  const LoopPlan* pp = cp.pred.planFor(loop);
  if (!bp || !pp) return LoopOutcome::NotCandidate;
  if (bp->status == LoopStatus::NotCandidate)
    return LoopOutcome::NotCandidate;
  if (bp->status == LoopStatus::Parallel) return LoopOutcome::BaseParallel;
  if (pp->status == LoopStatus::Parallel) return LoopOutcome::PredParallelCT;
  if (pp->status == LoopStatus::RuntimeTest)
    return LoopOutcome::PredParallelRT;
  if (pp->status == LoopStatus::Doacross) return LoopOutcome::PredDoacross;
  if (nestedInsideParallelized(cp, loop, cp.pred))
    return LoopOutcome::NestedInParallel;
  return LoopOutcome::SequentialBoth;
}

}  // namespace padfa
