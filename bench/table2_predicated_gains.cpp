// Experiment E2 — Table 2: loops newly parallelized by predicated array
// data-flow analysis.
//
// Paper form: per program, how many additional loops the predicated
// system parallelizes, split into compile-time and run-time-test
// parallelization, and what fraction of the ELPD-reported inherently
// parallel remainder that recovers. Headlines reproduced: additional
// loops in 9 programs; >40% of the remainder recovered.
//
// Programs are independent, so the corpus fans out program-parallel on
// the analysis pool; rows are collected and printed in corpus order, so
// the table is identical at any thread count.
#include "audit/plan_audit.h"
#include "audit/race_oracle.h"
#include "bench_util.h"
#include "runtime/thread_pool.h"
#include "support/table.h"

using namespace padfa;
using namespace padfa::bench;

namespace {

struct EntryStats {
  int cand = 0, elpd_par = 0, ct = 0, rt = 0, doa = 0, promoted = 0;
  int degraded = 0, certified = 0, audited = 0, unsound = 0;
  int oracle_run = 0, oracle_clean = 0, violations = 0;
  int syncs_total = 0, syncs_kept = 0;
};

EntryStats computeEntry(const CorpusEntry& e) {
  CompiledProgram cp = compileOrDie(e);
  RaceOracle elpd = runElpd(cp);
  // Static re-verification (PlanAuditor) of the predicated plans...
  DiagEngine audit_diags;
  AuditReport audit = auditPlans(*cp.program, cp.pred, audit_diags);
  EntryStats s;
  s.certified = static_cast<int>(audit.count(AuditVerdict::Independent) +
                                 audit.count(AuditVerdict::DischargedTest) +
                                 audit.count(AuditVerdict::DischargedSync));
  s.audited = static_cast<int>(audit.auditedCount());
  s.unsound = static_cast<int>(audit.count(AuditVerdict::Unsound));
  for (const auto& la : audit.loops) {
    s.syncs_total += static_cast<int>(la.syncs_total);
    s.syncs_kept += static_cast<int>(la.syncs_kept);
  }
  // ...and dynamic re-verification (race oracle) over the reference run.
  RaceOracle oracle(*cp.program, cp.pred);
  InterpOptions ropt;
  ropt.plans = &cp.pred;
  ropt.race = &oracle;
  execute(*cp.program, ropt);
  for (const auto& v : oracle.verdicts()) {
    if (!v.executed) continue;
    ++s.oracle_run;
    if (!v.violation) ++s.oracle_clean;
  }
  s.violations = static_cast<int>(oracle.violationCount());
  for (const LoopNode* node : cp.loops.allLoops()) {
    if (!isCandidate(cp, node->loop)) continue;
    ++s.cand;
    if (elpd.verdict(node->loop).parallelizable()) ++s.elpd_par;
    const LoopPlan* pp = cp.pred.planFor(node->loop);
    if (!pp) continue;
    if (pp->status == LoopStatus::Parallel) ++s.ct;
    // Of the compile-time column, how many are value-range promotions:
    // RuntimeTest plans whose test the range analysis discharged
    // statically (DESIGN.md Â§15).
    if (pp->status == LoopStatus::Parallel &&
        pp->vra_action == VraAction::PromotedParallel)
      ++s.promoted;
    if (pp->status == LoopStatus::RuntimeTest) ++s.rt;
    if (pp->status == LoopStatus::Doacross) ++s.doa;
  }
  s.degraded = static_cast<int>(cp.pred.degradedCount());
  return s;
}

}  // namespace

int main() {
  TextTable table({"program", "candidates", "ELPD-par", "pred-CT",
                   "CT-promoted", "pred-RT", "pred-DOA", "syncs",
                   "recovered", "% of remainder", "audit", "oracle",
                   "degraded"});
  const std::vector<CorpusEntry>& entries = corpus();
  std::vector<std::future<EntryStats>> futs;
  futs.reserve(entries.size());
  for (const CorpusEntry& e : entries)
    futs.push_back(analysisPool().submit([&e] { return computeEntry(e); }));
  int tot_cand = 0, tot_elpd = 0, tot_ct = 0, tot_rt = 0, tot_doa = 0;
  int tot_promoted = 0, tot_degraded = 0;
  int tot_syncs_total = 0, tot_syncs_kept = 0;
  int programs_with_gains = 0, programs_with_doacross = 0;
  int tot_audited = 0, tot_certified = 0, tot_unsound = 0;
  int tot_oracle_clean = 0, tot_oracle_run = 0, tot_violations = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    const CorpusEntry& e = entries[i];
    EntryStats s = futs[i].get();
    if (s.ct + s.rt > 0) ++programs_with_gains;
    if (s.doa > 0) ++programs_with_doacross;
    table.addRow({e.name, std::to_string(s.cand), std::to_string(s.elpd_par),
                  std::to_string(s.ct), std::to_string(s.promoted),
                  std::to_string(s.rt), std::to_string(s.doa),
                  std::to_string(s.syncs_total) + "->" +
                      std::to_string(s.syncs_kept),
                  std::to_string(s.ct + s.rt),
                  fmtPercent(s.ct + s.rt, s.elpd_par),
                  std::to_string(s.certified) + "/" +
                      std::to_string(s.audited),
                  std::to_string(s.oracle_clean) + "/" +
                      std::to_string(s.oracle_run),
                  std::to_string(s.degraded)});
    tot_cand += s.cand;
    tot_elpd += s.elpd_par;
    tot_ct += s.ct;
    tot_promoted += s.promoted;
    tot_rt += s.rt;
    tot_doa += s.doa;
    tot_syncs_total += s.syncs_total;
    tot_syncs_kept += s.syncs_kept;
    tot_degraded += s.degraded;
    tot_audited += s.audited;
    tot_certified += s.certified;
    tot_unsound += s.unsound;
    tot_oracle_run += s.oracle_run;
    tot_oracle_clean += s.oracle_clean;
    tot_violations += s.violations;
  }
  table.addSeparator();
  table.addRow({"TOTAL", std::to_string(tot_cand), std::to_string(tot_elpd),
                std::to_string(tot_ct), std::to_string(tot_promoted),
                std::to_string(tot_rt), std::to_string(tot_doa),
                std::to_string(tot_syncs_total) + "->" +
                    std::to_string(tot_syncs_kept),
                std::to_string(tot_ct + tot_rt),
                fmtPercent(tot_ct + tot_rt, tot_elpd),
                std::to_string(tot_certified) + "/" +
                    std::to_string(tot_audited),
                std::to_string(tot_oracle_clean) + "/" +
                    std::to_string(tot_oracle_run),
                std::to_string(tot_degraded)});
  std::printf("Table 2: loops newly parallelized by predicated analysis\n%s\n",
              table.render().c_str());
  std::printf("predicated analysis parallelizes %s of the inherently "
              "parallel remainder (paper: more than 40%%)\n",
              fmtPercent(tot_ct + tot_rt, tot_elpd).c_str());
  std::printf("programs gaining additional loops: %d (paper: 9)\n",
              programs_with_gains);
  std::printf("value ranges discharge %d run-time tests at compile time "
              "(CT-promoted; every promotion re-verified by auditor and "
              "oracle)\n",
              tot_promoted);
  std::printf("doacross pipelines %d further sequential loops across %d "
              "programs; sync requirements %d -> %d after redundant-sync "
              "elimination\n",
              tot_doa, programs_with_doacross, tot_syncs_total,
              tot_syncs_kept);
  std::printf("verification: auditor certifies %d/%d predicated plans "
              "(%d unsound); race oracle clean on %d/%d executed loops "
              "(%d violations)\n",
              tot_certified, tot_audited, tot_unsound, tot_oracle_clean,
              tot_oracle_run, tot_violations);
  return 0;
}
