// Doacross pipeline end-to-end: classification (constant-distance sync
// requirements in iteration ordinals), redundant-sync elimination, the
// auditor's independent re-derivation (with teeth against forged
// distances and forged eliminations), the race oracle modulo declared
// syncs, and execution correctness across thread counts and window
// bounds.
#include <gtest/gtest.h>

#include <cmath>

#include "audit/plan_audit.h"
#include "audit/race_oracle.h"
#include "corpus/corpus.h"
#include "dataflow/doacross.h"
#include "driver/padfa.h"
#include "driver/plan_signature.h"
#include "interp/interp.h"
#include "vra/vra.h"

namespace padfa {
namespace {

CompiledProgram compile(const std::string& src) {
  DiagEngine diags;
  auto cp = compileSource(src, diags);
  EXPECT_TRUE(cp.has_value()) << diags.dump();
  return std::move(*cp);
}

const CorpusEntry& entryNamed(std::string_view name) {
  for (const CorpusEntry& e : corpus())
    if (e.name == name) return e;
  ADD_FAILURE() << "no corpus entry named " << name;
  return corpus().front();
}

CompiledProgram compileEntry(std::string_view name) {
  return compile(instantiate(entryNamed(name)));
}

const ForStmt* loopAt(const CompiledProgram& cp, uint32_t line) {
  for (const LoopNode* node : cp.loops.allLoops())
    if (node->loop->loc.line == line) return node->loop;
  ADD_FAILURE() << "no loop at line " << line;
  return nullptr;
}

/// The unique Doacross plan of the predicated analysis (fails the test
/// when there is none or more than one).
const LoopPlan* doacrossPlan(const CompiledProgram& cp) {
  const LoopPlan* found = nullptr;
  for (const auto& [loop, plan] : cp.pred.plans) {
    if (plan.status != LoopStatus::Doacross) continue;
    EXPECT_EQ(found, nullptr) << "more than one Doacross plan";
    found = &plan;
  }
  EXPECT_NE(found, nullptr) << "no Doacross plan";
  return found;
}

std::string notesOf(const AuditReport& rep) {
  std::string out;
  for (const auto& la : rep.loops) {
    out += la.loop->loop_id + " [" + std::string(auditVerdictName(la.verdict)) +
           "]";
    for (const auto& n : la.notes) out += "\n    " + n;
    out += '\n';
  }
  return out;
}

// -------------------------------------------------- classification ----

/// RAII: compile with the value-range analysis off (the raw Doacross
/// machinery under test predates the profitability guard, which demotes
/// bare single-statement recurrences — see DoacrossCost below).
struct VraOff {
  VraOff() { vra::setVraEnabled(false); }
  ~VraOff() { vra::clearVraEnabledOverride(); }
};

const char* kUnitRecurrence = R"(
proc main() {
  real a[64];
  for i = 1 to 63 {
    a[i] = a[i - 1] * 0.5 + 1.0;
  }
  sink(a[63]);
}
)";

/// Same recurrence plus an independent per-iteration prefix: there is
/// real work to overlap, so the profitability guard lets it pipeline.
const char* kPipelinedRecurrence = R"(
proc main() {
  real a[64];
  real b[64];
  for i = 1 to 63 {
    b[i] = noise(i) * 0.25;
    a[i] = a[i - 1] * 0.5 + b[i];
  }
  sink(a[63]);
  sink(b[63]);
}
)";

TEST(DoacrossClassify, UnitStepRecurrenceUpgrades) {
  VraOff off;
  CompiledProgram cp = compile(kUnitRecurrence);
  const LoopPlan* plan = doacrossPlan(cp);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->syncs.size(), 1u);
  EXPECT_EQ(plan->syncs[0].distance, 1);
  EXPECT_FALSE(plan->syncs[0].eliminated);
  EXPECT_EQ(plan->keptSyncCount(), 1u);
  // The Sequential reason survives the upgrade as documentation.
  EXPECT_NE(plan->reason.find("loop-carried"), std::string::npos);
}

TEST(DoacrossClassify, StepTwoStoresOrdinalDistance) {
  // Index distance 2 over step 2 is ONE iteration: the sync requirement
  // must be stored in iteration ordinals, not index space — the runtime
  // post/wait cells count ordinals.
  VraOff off;
  CompiledProgram cp = compile(R"(
proc main() {
  real a[64];
  for i = 2 to 62 step 2 {
    a[i] = a[i - 2] * 0.5 + 1.0;
  }
  sink(a[62]);
}
)");
  const LoopPlan* plan = doacrossPlan(cp);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->syncs.size(), 1u);
  EXPECT_EQ(plan->syncs[0].distance, 1);
}

TEST(DoacrossClassify, DownwardLoopStaysSequential) {
  // Negative step: doacrossConstStep() refuses, the loop keeps its
  // Sequential plan.
  CompiledProgram cp = compile(R"(
proc main() {
  real a[64];
  for i = 62 to 0 step -1 {
    a[i] = a[i + 1] * 0.5 + 1.0;
  }
  sink(a[0]);
}
)");
  for (const auto& [loop, plan] : cp.pred.plans)
    EXPECT_NE(plan.status, LoopStatus::Doacross) << loop->loop_id;
}

TEST(DoacrossClassify, NonConstantDistanceStaysSequential) {
  // a[i] reads a[i/2]: the dependence distance varies with i, so no
  // constant-distance sync can cover it.
  CompiledProgram cp = compile(R"(
proc main() {
  real a[64];
  for i = 1 to 63 {
    a[i] = a[i / 2] * 0.5 + 1.0;
  }
  sink(a[63]);
}
)");
  for (const auto& [loop, plan] : cp.pred.plans)
    EXPECT_NE(plan.status, LoopStatus::Doacross) << loop->loop_id;
}

TEST(DoacrossClassify, DoacrossConstStepRules) {
  CompiledProgram cp = compile(R"(
proc main() {
  real a[8];
  for i = 0 to 7 { a[i] = 1.0; }
  for i = 0 to 7 step 3 { a[i] = 2.0; }
  for i = 7 to 0 step -1 { a[i] = 3.0; }
  sink(a[0]);
}
)");
  const ForStmt* unit = loopAt(cp, 4);
  const ForStmt* three = loopAt(cp, 5);
  const ForStmt* down = loopAt(cp, 6);
  ASSERT_TRUE(unit && three && down);
  EXPECT_EQ(doacrossConstStep(*unit), std::optional<int64_t>(1));
  EXPECT_EQ(doacrossConstStep(*three), std::optional<int64_t>(3));
  EXPECT_EQ(doacrossConstStep(*down), std::nullopt);
}

// -------------------------------------------------- profitability ----

TEST(DoacrossCost, LossMakingRecurrenceDemoted) {
  // The whole body IS the recurrence: every iteration waits for its
  // predecessor to finish everything, so the pipeline degenerates to a
  // sequential schedule plus post/wait overhead. The value-range cost
  // guard keeps the loop Sequential and records why.
  CompiledProgram cp = compile(kUnitRecurrence);
  for (const auto& [loop, plan] : cp.pred.plans)
    EXPECT_NE(plan.status, LoopStatus::Doacross) << loop->loop_id;
  bool saw_demotion = false;
  for (const auto& [loop, plan] : cp.pred.plans) {
    if (plan.vra_action != VraAction::DoacrossCost) continue;
    saw_demotion = true;
    EXPECT_EQ(plan.status, LoopStatus::Sequential);
    EXPECT_NE(plan.reason.find("loop-carried"), std::string::npos);
  }
  EXPECT_TRUE(saw_demotion);
}

TEST(DoacrossCost, SpanBelowStepDemotes) {
  // lb=8, ub=9, step=4: at most one iteration ever runs — nothing to
  // pipeline, whatever the body looks like.
  CompiledProgram cp = compile(R"(
proc main() {
  real a[16];
  real b[16];
  for i = 8 to 9 step 4 {
    b[i] = noise(i) * 0.25;
    a[i] = a[i - 4] * 0.5 + b[i];
  }
  sink(a[9]);
  sink(b[9]);
}
)");
  for (const auto& [loop, plan] : cp.pred.plans)
    EXPECT_NE(plan.status, LoopStatus::Doacross) << loop->loop_id;
}

TEST(DoacrossCost, IndependentPrefixSurvivesTheGuard) {
  // The independent prefix gives iteration i+1 work to do while waiting
  // on iteration i's tail: profitable, so the upgrade commits.
  CompiledProgram cp = compile(kPipelinedRecurrence);
  const LoopPlan* plan = doacrossPlan(cp);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->vra_action, VraAction::None);
  ASSERT_EQ(plan->syncs.size(), 1u);
  EXPECT_EQ(plan->syncs[0].distance, 1);
}

TEST(DoacrossCost, DisabledVraReproducesTheOldUpgrade) {
  // Under PADFA_NO_VRA the guard must be inert: the bare recurrence
  // upgrades exactly as it did before the value-range pass existed, and
  // its plan signature carries no vra marker.
  VraOff off;
  CompiledProgram cp = compile(kUnitRecurrence);
  const LoopPlan* plan = doacrossPlan(cp);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->vra_action, VraAction::None);
  EXPECT_EQ(planSignature(cp).find(" vra="), std::string::npos);
}

// --------------------------------------------------- elimination ----

TEST(DoacrossElimination, WavefrontDropsImpliedRequirement) {
  // wavefront_sync carries (S1,S1,1), (S2,S2,1) and (S1,S2,2); the
  // distance-2 requirement is implied by chaining (S1,S1,1) twice plus
  // intra-iteration program order, so elimination drops exactly it.
  CompiledProgram cp = compileEntry("wavefront_sync");
  const LoopPlan* plan = doacrossPlan(cp);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->syncs.size(), 3u);
  EXPECT_EQ(plan->keptSyncCount(), 2u);
  for (const auto& s : plan->syncs) {
    if (s.eliminated) {
      EXPECT_EQ(s.distance, 2);
    } else {
      EXPECT_EQ(s.distance, 1);
    }
  }
}

TEST(DoacrossElimination, CoverageRuleAgreesWithTheAuditor) {
  CompiledProgram cp = compileEntry("wavefront_sync");
  const LoopPlan* plan = doacrossPlan(cp);
  ASSERT_NE(plan, nullptr);
  SyncOrderInfo info = buildSyncOrderInfo(*plan->loop);
  std::vector<SyncRequirement> kept;
  for (const auto& s : plan->syncs)
    if (!s.eliminated) kept.push_back(s);
  for (const auto& s : plan->syncs) {
    if (!s.eliminated) continue;
    // The eliminated requirement is re-derivable from the kept set...
    EXPECT_TRUE(syncRequirementCovered(s, kept, info));
    // ...but never from an empty one.
    EXPECT_FALSE(syncRequirementCovered(s, {}, info));
  }
}

// --------------------------------------------------------- audit ----

TEST(DoacrossAudit, AuditorDischargesDeclaredSyncs) {
  VraOff off;
  CompiledProgram cp = compile(kUnitRecurrence);
  DiagEngine diags;
  AuditReport rep = auditPlans(*cp.program, cp.pred, diags);
  EXPECT_TRUE(rep.clean()) << notesOf(rep);
  bool saw_doacross = false;
  for (const auto& la : rep.loops) {
    if (la.status != LoopStatus::Doacross) continue;
    saw_doacross = true;
    EXPECT_EQ(la.verdict, AuditVerdict::DischargedSync) << notesOf(rep);
    EXPECT_GT(la.pairs_synced, 0u);
    EXPECT_EQ(la.syncs_total, 1u);
    EXPECT_EQ(la.syncs_kept, 1u);
  }
  EXPECT_TRUE(saw_doacross);
}

TEST(DoacrossAudit, AuditorCatchesForgedDistance) {
  // Weakening the declared sync (distance 1 -> 2) leaves the real
  // distance-1 dependence uncovered; the auditor must flag it.
  VraOff off;
  CompiledProgram cp = compile(kUnitRecurrence);
  AnalysisResult forged = cp.pred;
  int forced = 0;
  for (auto& [loop, plan] : forged.plans)
    if (plan.status == LoopStatus::Doacross) {
      ASSERT_EQ(plan.syncs.size(), 1u);
      plan.syncs[0].distance = 2;
      ++forced;
    }
  ASSERT_GT(forced, 0);
  DiagEngine diags;
  AuditReport rep = auditPlans(*cp.program, forged, diags);
  EXPECT_EQ(rep.count(AuditVerdict::Unsound), 1u) << notesOf(rep);
}

TEST(DoacrossAudit, AuditorCatchesForgedElimination) {
  // Marking the only requirement eliminated forges an elimination the
  // kept (now empty) set cannot imply; checkSyncs() must reject it.
  VraOff off;
  CompiledProgram cp = compile(kUnitRecurrence);
  AnalysisResult forged = cp.pred;
  int forced = 0;
  for (auto& [loop, plan] : forged.plans)
    if (plan.status == LoopStatus::Doacross) {
      ASSERT_EQ(plan.syncs.size(), 1u);
      plan.syncs[0].eliminated = true;
      ++forced;
    }
  ASSERT_GT(forced, 0);
  DiagEngine diags;
  AuditReport rep = auditPlans(*cp.program, forged, diags);
  EXPECT_EQ(rep.count(AuditVerdict::Unsound), 1u) << notesOf(rep);
}

// -------------------------------------------------------- oracle ----

TEST(DoacrossOracle, CleanOnExecutedDoacrossLoops) {
  for (const char* name : {"sor_pipe", "lin_rec4", "wavefront_sync"}) {
    CompiledProgram cp = compileEntry(name);
    RaceOracle oracle(*cp.program, cp.pred);
    InterpOptions opt;
    opt.plans = &cp.pred;
    opt.race = &oracle;
    execute(*cp.program, opt);
    EXPECT_EQ(oracle.violationCount(), 0u)
        << name << ":\n" << oracle.report();
    bool saw_doacross = false;
    for (const auto& v : oracle.verdicts())
      if (v.status == LoopStatus::Doacross && v.executed) saw_doacross = true;
    EXPECT_TRUE(saw_doacross) << name;
  }
}

TEST(DoacrossOracle, CatchesForgedDistance) {
  // The oracle checks accesses modulo the DECLARED sync distances; a
  // forged distance exposes the true distance-1 flow as a violation.
  VraOff off;
  CompiledProgram cp = compile(kUnitRecurrence);
  AnalysisResult forged = cp.pred;
  for (auto& [loop, plan] : forged.plans)
    if (plan.status == LoopStatus::Doacross) plan.syncs[0].distance = 2;
  RaceOracle oracle(*cp.program, forged);
  InterpOptions opt;
  opt.plans = &forged;
  opt.race = &oracle;
  execute(*cp.program, opt);
  EXPECT_GE(oracle.violationCount(), 1u)
      << oracle.report();
}

// ----------------------------------------------------- execution ----

TEST(DoacrossExec, DeterministicAcrossThreadsAndWindows) {
  // For a FIXED chunk the block decomposition — and therefore every
  // computed value, including floating-point reduction grouping — must
  // be bit-identical across thread counts and window bounds. Against
  // the sequential run only reductions reassociate, so that comparison
  // gets the usual tiny relative tolerance.
  for (const char* name : {"sor_pipe", "lin_rec4", "wavefront_sync"}) {
    CompiledProgram cp = compileEntry(name);
    InterpOptions seq;
    const double seq_sum = execute(*cp.program, seq).checksum;
    bool have_baseline = false;
    double baseline = 0;
    for (unsigned threads : {1u, 2u, 8u}) {
      for (int64_t window : {int64_t{2}, int64_t{64}}) {
        InterpOptions opt;
        opt.plans = &cp.pred;
        opt.num_threads = threads;
        opt.chunk = 1;
        opt.doacross_window = window;
        InterpStats st = execute(*cp.program, opt);
        if (!have_baseline) {
          baseline = st.checksum;
          have_baseline = true;
          EXPECT_NEAR(baseline, seq_sum, 1e-9 * (std::abs(seq_sum) + 1.0))
              << name;
        }
        EXPECT_EQ(st.checksum, baseline)
            << name << " T=" << threads << " window=" << window;
        if (threads > 1) {
          EXPECT_GT(st.doacross_loops_entered, 0u) << name;
        }
      }
    }
  }
}

TEST(DoacrossExec, PipelineOverlapsInSimulatedTime) {
  // With the carried dependence on a tiny tail of each iteration, the
  // simulated 4-processor pipeline must beat the sequential run.
  CompiledProgram cp = compileEntry("sor_pipe");
  InterpOptions seq;
  seq.profile = true;
  InterpStats s0 = execute(*cp.program, seq);
  InterpOptions par;
  par.plans = &cp.pred;
  par.num_threads = 4;
  par.profile = true;
  InterpStats s1 = execute(*cp.program, par);
  EXPECT_EQ(s1.checksum, s0.checksum);
  EXPECT_GT(s1.doacross_loops_entered, 0u);
  EXPECT_GT(s1.doacross_waits, 0u);
  EXPECT_LT(s1.simulated_seconds, s0.simulated_seconds)
      << "pipelined execution did not overlap";
}

// ----------------------------------------------------- signature ----

TEST(DoacrossSignature, SyncsAreInTheSignature) {
  CompiledProgram cp = compileEntry("wavefront_sync");
  std::string sig = planSignature(cp);
  // Sync requirements (with elimination marks) are part of the plan's
  // canonical identity.
  EXPECT_NE(sig.find("syncs=["), std::string::npos);
  EXPECT_NE(sig.find(":d1"), std::string::npos);
  EXPECT_NE(sig.find(":d2-elim"), std::string::npos);
}

}  // namespace
}  // namespace padfa
