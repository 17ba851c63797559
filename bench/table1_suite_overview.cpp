// Experiment E1 — Table 1: benchmark suite overview.
//
// Paper form: for every program, how many loops it has, how many the base
// SUIF system parallelizes, how many candidates remain, and how many of
// those the ELPD run-time test reports as inherently parallel on the
// reference input. (Paper headline: >4000 loops total, base parallelizes
// over 50%; our corpus reproduces the *shape* at smaller scale.)
//
// Programs are independent, so the corpus fans out program-parallel on
// the analysis pool; rows are collected and printed in corpus order, so
// the table is identical at any thread count.
#include "audit/plan_audit.h"
#include "bench_util.h"
#include "runtime/thread_pool.h"
#include "support/table.h"

using namespace padfa;
using namespace padfa::bench;

namespace {

struct EntryStats {
  int loops = 0, base_par = 0, not_cand = 0, nested = 0, cand = 0,
      elpd_par = 0;
  int promoted = 0;
  int degraded = 0, certified = 0, audited = 0, unsound = 0;
  std::map<std::string, uint64_t> causes;
};

EntryStats computeEntry(const CorpusEntry& e) {
  CompiledProgram cp = compileOrDie(e);
  RaceOracle elpd = runElpd(cp);
  // Independent re-verification of the base system's plans.
  DiagEngine audit_diags;
  AuditReport audit = auditPlans(*cp.program, cp.base, audit_diags);
  EntryStats s;
  s.certified = static_cast<int>(audit.count(AuditVerdict::Independent) +
                                 audit.count(AuditVerdict::DischargedTest));
  s.audited = static_cast<int>(audit.auditedCount());
  s.unsound = static_cast<int>(audit.count(AuditVerdict::Unsound));
  for (const LoopNode* node : cp.loops.allLoops()) {
    ++s.loops;
    if (isCandidate(cp, node->loop)) {
      ++s.cand;
      if (elpd.verdict(node->loop).parallelizable()) ++s.elpd_par;
      continue;
    }
    // Not a candidate: I/O or unanalyzable bounds, parallel in the base
    // system, or left sequential inside a base-parallelized loop.
    const LoopPlan* bp = cp.base.planFor(node->loop);
    if (!bp || bp->status == LoopStatus::NotCandidate)
      ++s.not_cand;
    else if (bp->status == LoopStatus::Parallel)
      ++s.base_par;
    else
      ++s.nested;
  }
  // Predicated run-time tests the value-range analysis discharges at
  // compile time (DESIGN.md Â§15) -- the suite-level view of the
  // CT-promotion client.
  for (const auto& [loop, plan] : cp.pred.plans)
    if (plan.status == LoopStatus::Parallel &&
        plan.vra_action == VraAction::PromotedParallel)
      ++s.promoted;
  s.degraded = static_cast<int>(cp.base.degradedCount());
  for (const auto& [cause, n] : cp.base.exhaustion_causes) s.causes[cause] += n;
  return s;
}

}  // namespace

int main() {
  TextTable table({"program", "suite", "loops", "base-par", "not-cand",
                   "nested", "candidates", "ELPD-par", "CT-promoted",
                   "audit-ok", "degraded"});
  const std::vector<CorpusEntry>& entries = corpus();
  std::vector<std::future<EntryStats>> futs;
  futs.reserve(entries.size());
  for (const CorpusEntry& e : entries)
    futs.push_back(analysisPool().submit([&e] { return computeEntry(e); }));
  int tot_loops = 0, tot_base = 0, tot_cand = 0, tot_elpd = 0;
  int tot_promoted = 0, tot_degraded = 0;
  int tot_audited = 0, tot_certified = 0, tot_unsound = 0;
  std::map<std::string, uint64_t> causes;
  std::string cur_suite;
  for (size_t i = 0; i < entries.size(); ++i) {
    const CorpusEntry& e = entries[i];
    EntryStats s = futs[i].get();
    if (e.suite != cur_suite) {
      if (!cur_suite.empty()) table.addSeparator();
      cur_suite = e.suite;
    }
    for (const auto& [cause, n] : s.causes) causes[cause] += n;
    table.addRow({e.name, e.suite, std::to_string(s.loops),
                  std::to_string(s.base_par), std::to_string(s.not_cand),
                  std::to_string(s.nested), std::to_string(s.cand),
                  std::to_string(s.elpd_par), std::to_string(s.promoted),
                  std::to_string(s.certified) + "/" +
                      std::to_string(s.audited),
                  std::to_string(s.degraded)});
    tot_loops += s.loops;
    tot_base += s.base_par;
    tot_cand += s.cand;
    tot_elpd += s.elpd_par;
    tot_promoted += s.promoted;
    tot_degraded += s.degraded;
    tot_audited += s.audited;
    tot_certified += s.certified;
    tot_unsound += s.unsound;
  }
  table.addSeparator();
  table.addRow({"TOTAL", "", std::to_string(tot_loops),
                std::to_string(tot_base), "", "", std::to_string(tot_cand),
                std::to_string(tot_elpd), std::to_string(tot_promoted),
                std::to_string(tot_certified) + "/" +
                    std::to_string(tot_audited),
                std::to_string(tot_degraded)});
  std::printf("Table 1: suite overview (base system + ELPD inherent "
              "parallelism)\n%s\n",
              table.render().c_str());
  std::printf("base parallelizes %s of all loops "
              "(paper: over 50%% of >4000 loops)\n",
              fmtPercent(tot_base, tot_loops).c_str());
  std::printf("ELPD finds %d inherently parallel loops among %d "
              "remaining candidates\n",
              tot_elpd, tot_cand);
  std::printf("plan auditor certifies %d/%d base plans independent "
              "(%d unsound)\n",
              tot_certified, tot_audited, tot_unsound);
  if (tot_degraded > 0) {
    std::printf("degraded loops: %d (budget exhaustion:", tot_degraded);
    for (const auto& [cause, n] : causes)
      std::printf(" %s=%llu", cause.c_str(),
                  static_cast<unsigned long long>(n));
    std::printf(")\n");
  }
  return 0;
}
