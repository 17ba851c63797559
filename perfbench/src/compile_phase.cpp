#include <numeric>

#include "audit/lint.h"
#include "audit/plan_audit.h"
#include "dataflow/doacross.h"
#include "dataflow/vra_promote.h"
#include "driver/plan_signature.h"
#include "phases.h"
#include "presburger/feasibility_cache.h"
#include "support/hash.h"
#include "support/perf_stats.h"
#include "vra/vra.h"

using namespace padfa;

namespace perfbench {

std::string signatureDigest(const std::string& signature) {
  return hashHex(contentHash64(signature));
}

std::optional<CompiledProgram> compileSteps(const std::string& source,
                                            DiagEngine& diags,
                                            Tracer& tracer) {
  std::unique_ptr<Program> program;
  {
    Tracer::Span s(tracer, "lang.parse");
    program = parseProgram(source, diags);
  }
  if (!program) return std::nullopt;
  {
    Tracer::Span s(tracer, "lang.sema");
    if (!analyze(*program, diags)) return std::nullopt;
  }
  CompiledProgram cp;
  {
    Tracer::Span s(tracer, "ir.looptree");
    cp.loops = LoopTree::build(*program);
  }
  // From here on this mirrors compileSource() in driver/padfa.cpp, except
  // that the baseline analysis runs on this thread instead of the pool.
  BudgetLimits budget = BudgetLimits::defaults();
  AnalysisConfig base_cfg = AnalysisConfig::baseline();
  base_cfg.budget = budget;
  AnalysisConfig pred_cfg = AnalysisConfig::predicated();
  pred_cfg.budget = budget;
  {
    Tracer::Span s(tracer, "dataflow.base");
    cp.base = analyzeProgram(*program, base_cfg);
  }
  {
    Tracer::Span s(tracer, "dataflow.pred");
    cp.pred = analyzeProgram(*program, pred_cfg);
  }
  for (auto& [loop, pplan] : cp.pred.plans) {
    if (!pplan.degraded) continue;
    const LoopPlan* bplan = cp.base.planFor(loop);
    if (!bplan || bplan->degraded) continue;
    std::string cause = std::move(pplan.degrade_cause);
    pplan = *bplan;
    pplan.degraded = true;
    pplan.degrade_cause = std::move(cause);
  }
  std::unique_ptr<vra::RangeAnalysis> ranges;
  {
    Tracer::Span s(tracer, "vra.ranges");
    if (!BudgetLimits::fromEnv(budget).governed() && vra::vraEnabled())
      ranges = std::make_unique<vra::RangeAnalysis>(*program);
  }
  const vra::RangeAnalysis* rp =
      ranges && ranges->enabled() ? ranges.get() : nullptr;
  {
    Tracer::Span s(tracer, "dataflow.doacross");
    upgradeDoacrossPlans(*program, cp.pred, rp);
  }
  {
    Tracer::Span s(tracer, "vra.promote");
    if (rp) applyVraPromotions(*program, cp.pred, *rp);
  }
  cp.program = std::move(program);
  return cp;
}

namespace {

/// The process-wide counters a compile moves, read as plain numbers.
std::map<std::string, double> readCounters() {
  const PerfStats& p = PerfStats::instance();
  auto n = [](const std::atomic<uint64_t>& a) {
    return static_cast<double>(a.load(std::memory_order_relaxed));
  };
  return {
      {"feas_hits", n(p.feasibility.hits)},
      {"feas_lookups", static_cast<double>(p.feasibility.lookups())},
      {"implies_hits", n(p.implies.hits)},
      {"implies_lookups", static_cast<double>(p.implies.lookups())},
      {"simplify_hits", n(p.simplify.hits)},
      {"simplify_lookups", static_cast<double>(p.simplify.lookups())},
      {"summary_hits", n(p.summary.hits)},
      {"summary_lookups", static_cast<double>(p.summary.lookups())},
      {"vra_proofs", n(p.vra.proofs)},
      {"vra_promotions", n(p.vra.promotions)},
  };
}

size_t parallelPlans(const CompiledProgram& cp) {
  size_t n = 0;
  for (const AnalysisResult* r : {&cp.base, &cp.pred})
    for (const auto& [loop, plan] : r->plans)
      n += plan.status == LoopStatus::Parallel ||
           plan.status == LoopStatus::RuntimeTest ||
           plan.status == LoopStatus::Doacross;
  return n;
}

}  // namespace

CompilePhase::CompilePhase(std::vector<CompileInput> programs, uint64_t seed)
    : programs_(std::move(programs)), rng_(seed) {}

bool CompilePhase::verify(const CompiledProgram& cp, Tracer& tracer) {
  Tracer::Span root(tracer, "verify");
  DiagEngine diags;
  {
    Tracer::Span s(tracer, "audit.lint");
    runLint(*cp.program, cp.loops, diags);
  }
  size_t unsound = 0;
  {
    Tracer::Span s(tracer, "audit.plans");
    for (const AnalysisResult* r : {&cp.base, &cp.pred})
      unsound += auditPlans(*cp.program, *r, diags)
                     .count(AuditVerdict::Unsound);
  }
  counters_["unsound"] += static_cast<double>(unsound);
  return unsound == 0;
}

void CompilePhase::untracedOp(const CompileInput& in, Tally& tally) {
  pb::FeasibilityCache::global().clear();
  DiagEngine diags;
  Stopwatch sw;
  auto cp = compileSource(in.source, diags);
  size_t report_bytes = cp ? renderPlanReport(*cp).size() : 0;
  double ms = sw.ms();
  if (!cp) {
    tally.record(false, in.name + ": compile failed");
    return;
  }
  compile_ms_.push_back(ms);
  std::string digest = signatureDigest(planSignature(*cp));
  Tracer off;
  Stopwatch vw;
  bool sound = verify(*cp, off);
  verify_ms_.push_back(vw.ms());
  if (digest != in.expected_digest)
    tally.record(false, in.name + ": plan signature digest " + digest +
                            " != expected " + in.expected_digest);
  else
    tally.record(sound && report_bytes > 0, in.name + ": Unsound plan");
}

void CompilePhase::tracedOp(const CompileInput& in, Tracer& tracer,
                            Tally& tally) {
  size_t idx = static_cast<size_t>(&in - programs_.data());
  // The end-to-end reference: compileSource + render, as in the untraced
  // run, with no spans open.
  tracer.setEnabled(false);
  pb::FeasibilityCache::global().clear();
  DiagEngine ref_diags;
  Stopwatch ew;
  auto ref = compileSource(in.source, ref_diags);
  if (ref) renderPlanReport(*ref);
  double e2e = ew.ms();
  if (!ref) {
    tracer.setEnabled(true);
    tally.record(false, in.name + ": compile failed");
    return;
  }
  if (reference_sig_[idx].empty()) reference_sig_[idx] = planSignature(*ref);

  // The step-by-step compile twice, tracer off and on, in alternating
  // order: the difference is the tracing overhead.
  std::optional<CompiledProgram> traced;
  double on_ms = 0, off_ms = 0;
  bool on_first = traced_ops_ % 2 == 0;
  for (int pass = 0; pass < 2; ++pass) {
    bool on = (pass == 0) == on_first;
    pb::FeasibilityCache::global().clear();
    tracer.setEnabled(on);
    if (on) tracer.beginOp();
    auto before = readCounters();
    DiagEngine diags;
    Stopwatch sw;
    std::optional<CompiledProgram> cp;
    {
      Tracer::Span root(tracer, "compile");
      cp = compileSteps(in.source, diags, tracer);
      if (cp) {
        Tracer::Span s(tracer, "driver.render");
        renderPlanReport(*cp);
      }
    }
    double ms = sw.ms();
    if (!on) {
      off_ms = ms;
      continue;
    }
    on_ms = ms;
    for (const auto& [k, v] : readCounters()) counters_[k] += v - before[k];
    traced = std::move(cp);
  }
  tracer.setEnabled(true);
  if (!traced) {
    tally.record(false, in.name + ": step-by-step compile failed");
    return;
  }
  ++traced_ops_;
  e2e_ms_ += e2e;
  steps_on_ms_ += on_ms;
  steps_off_ms_ += off_ms;
  counters_["parallel_plans"] += static_cast<double>(parallelPlans(*traced));
  std::string sig;
  {
    Tracer::Span s(tracer, "driver.signature");
    sig = planSignature(*traced);
  }
  bool sound = verify(*traced, tracer);
  if (sig != reference_sig_[idx])
    tally.record(false, in.name + ": step-by-step signature differs from "
                                  "compileSource");
  else if (signatureDigest(sig) != in.expected_digest)
    tally.record(false, in.name + ": plan signature digest differs from "
                                  "expected");
  else
    tally.record(sound, in.name + ": Unsound plan");
}

bool CompilePhase::step(Tracer& tracer, Tally& tally) {
  if (pos_ == 0) {
    order_.resize(programs_.size());
    std::iota(order_.begin(), order_.end(), 0);
    rng_.shuffle(order_);
  }
  const CompileInput& in = programs_[order_[pos_]];
  if (tracer.enabled()) {
    reference_sig_.resize(programs_.size());
    tracedOp(in, tracer, tally);
  } else {
    untracedOp(in, tally);
  }
  pos_ = (pos_ + 1) % programs_.size();
  return pos_ == 0;
}

void CompilePhase::finish(Tracer& tracer) {
  for (const auto& [name, ms] : tracer.selfMs())
    counters_["self:" + name] += ms;
}

void CompilePhase::endToEnd(Metrics& out) const {
  double total_ms =
      std::accumulate(compile_ms_.begin(), compile_ms_.end(), 0.0);
  out["compile_ms_p50"] = {median(compile_ms_), "ms"};
  out["compile_ms_p99"] = {percentile(compile_ms_, 99), "ms"};
  out["compile_per_s"] = {static_cast<double>(compile_ms_.size()) /
                              (total_ms / 1e3),
                          "1/s"};
  out["verify_ms_p50"] = {median(verify_ms_), "ms"};
}

void CompilePhase::perLayer(Metrics& out) const {
  double ops = static_cast<double>(traced_ops_);
  auto c = [this](const std::string& k) {
    auto it = counters_.find(k);
    return it == counters_.end() ? 0.0 : it->second;
  };
  // Span self time per operation.
  for (const char* name :
       {"lang.parse", "lang.sema", "ir.looptree", "dataflow.base",
        "dataflow.pred", "dataflow.doacross", "vra.ranges", "vra.promote",
        "audit.plans", "audit.lint", "driver.render", "driver.signature"})
    out[std::string(name) + "_ms"] = {c(std::string("self:") + name) / ops,
                                      "ms"};
  // Counters per round (one compile of every program).
  double per_round = static_cast<double>(programs_.size()) / ops;
  out["dataflow.summary_memo_lookups"] = {c("summary_lookups") * per_round,
                                          "count"};
  out["dataflow.summary_memo_hits"] = {c("summary_hits") * per_round, "count"};
  out["dataflow.parallel_plans"] = {c("parallel_plans") * per_round, "count"};
  out["presburger.feas_lookups"] = {c("feas_lookups") * per_round, "count"};
  out["presburger.feas_hit_rate"] = {
      c("feas_lookups") > 0 ? c("feas_hits") / c("feas_lookups") : 0.0,
      "ratio"};
  out["predicate.implies_lookups"] = {c("implies_lookups") * per_round,
                                      "count"};
  out["predicate.implies_hits"] = {c("implies_hits") * per_round, "count"};
  out["predicate.simplify_lookups"] = {c("simplify_lookups") * per_round,
                                       "count"};
  out["predicate.simplify_hits"] = {c("simplify_hits") * per_round, "count"};
  out["vra.proofs"] = {c("vra_proofs") * per_round, "count"};
  out["vra.promotions"] = {c("vra_promotions") * per_round, "count"};
  out["audit.unsound"] = {c("unsound"), "count"};
  // Serial step sum against the concurrent compileSource wall, and the
  // cost of the spans themselves.
  out["trace.compile_phase_sum_ms"] = {steps_on_ms_ / ops, "ms"};
  out["trace.compile_e2e_ms"] = {e2e_ms_ / ops, "ms"};
  out["trace.compile_gap_ms"] = {(steps_on_ms_ - e2e_ms_) / ops, "ms"};
  out["trace.overhead_pct"] = {
      (steps_on_ms_ - steps_off_ms_) / steps_off_ms_ * 100.0, "%"};
}

}  // namespace perfbench
