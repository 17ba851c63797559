// Tentpole end-to-end certification: for every corpus program, the static
// PlanAuditor and the dynamic race oracle must both agree with the
// analysis's parallelization plans — and both must have teeth, i.e. catch
// a deliberately falsified plan.
#include <gtest/gtest.h>

#include "audit/plan_audit.h"
#include "audit/race_oracle.h"
#include "corpus/corpus.h"
#include "driver/padfa.h"

namespace padfa {
namespace {

CompiledProgram compileEntry(const CorpusEntry& e, int scale = 1) {
  DiagEngine diags;
  auto cp = compileSource(instantiate(e, scale), diags);
  EXPECT_TRUE(cp.has_value()) << e.name << ": " << diags.dump();
  return std::move(*cp);
}

CompiledProgram compile(const std::string& src) {
  DiagEngine diags;
  auto cp = compileSource(src, diags);
  EXPECT_TRUE(cp.has_value()) << diags.dump();
  return std::move(*cp);
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

class CorpusAudit : public ::testing::TestWithParam<int> {};

// The auditor independently re-derives every Parallel / RuntimeTest plan
// of both analyses; none may come back unsound.
TEST_P(CorpusAudit, NoPlanIsUnsound) {
  const CorpusEntry& e = corpus()[static_cast<size_t>(GetParam())];
  CompiledProgram cp = compileEntry(e);
  for (const AnalysisResult* ar : {&cp.base, &cp.pred}) {
    DiagEngine diags;
    AuditReport rep = auditPlans(*cp.program, *ar, diags);
    EXPECT_TRUE(rep.clean())
        << e.name << (ar == &cp.base ? " (base)" : " (pred)") << ":\n"
        << notesOf(rep) << diags.dump();
    EXPECT_EQ(diags.countWithId("audit-unsound"), 0u) << e.name;
  }
}

// The dynamic oracle shadows every audited loop's memory footprint during
// a sequential run; no plan may exhibit a cross-iteration violation.
TEST_P(CorpusAudit, OracleObservesNoViolation) {
  const CorpusEntry& e = corpus()[static_cast<size_t>(GetParam())];
  CompiledProgram cp = compileEntry(e);
  RaceOracle oracle(*cp.program, cp.pred);
  InterpOptions opt;
  opt.plans = &cp.pred;
  opt.race = &oracle;
  execute(*cp.program, opt);
  EXPECT_EQ(oracle.violationCount(), 0u)
      << e.name << ":\n"
      << oracle.report(cp.program->interner);
}

// Agreement: a loop the auditor certified (Independent / DischargedTest)
// must also be clean dynamically, and vice versa — the static and dynamic
// checkers may be conservative but must never contradict each other.
TEST_P(CorpusAudit, AuditorAndOracleAgree) {
  const CorpusEntry& e = corpus()[static_cast<size_t>(GetParam())];
  CompiledProgram cp = compileEntry(e);
  DiagEngine diags;
  AuditReport rep = auditPlans(*cp.program, cp.pred, diags);
  RaceOracle oracle(*cp.program, cp.pred);
  InterpOptions opt;
  opt.plans = &cp.pred;
  opt.race = &oracle;
  execute(*cp.program, opt);
  std::map<const ForStmt*, bool> dynamic_violation;
  for (const auto& v : oracle.verdicts())
    if (v.executed) dynamic_violation[v.loop] = v.violation;
  for (const auto& la : rep.loops) {
    auto it = dynamic_violation.find(la.loop);
    if (it == dynamic_violation.end()) continue;  // loop never ran
    if (la.verdict == AuditVerdict::Independent ||
        la.verdict == AuditVerdict::DischargedTest ||
        la.verdict == AuditVerdict::DischargedSync) {
      EXPECT_FALSE(it->second)
          << e.name << ": auditor certified " << la.loop->loop_id
          << " but the oracle saw a violation:\n"
          << oracle.report(cp.program->interner);
    }
    if (it->second) {
      EXPECT_EQ(la.verdict, AuditVerdict::Unsound)
          << e.name << ": oracle violation on " << la.loop->loop_id
          << " but auditor said " << auditVerdictName(la.verdict);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, CorpusAudit, ::testing::Range(0, 33),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return corpus()[static_cast<size_t>(info.param)]
                               .name;
                         });

// ----------------------------------------------------------- teeth ----

const char* kRecurrence = R"(
proc main() {
  real a[64];
  for i = 1 to 63 {
    a[i] = a[i - 1] + 1.0;
  }
  sink(a[63]);
}
)";

// A falsified plan (a genuine recurrence forced Parallel) must be caught
// by the static auditor...
TEST(PlanAuditTeeth, AuditorCatchesFalsifiedPlan) {
  CompiledProgram cp = compile(kRecurrence);
  AnalysisResult forged = cp.pred;
  int forced = 0;
  // The constant-distance recurrence is claimed by the Doacross upgrade,
  // so the forged plan strips the syncs too.
  for (auto& [loop, plan] : forged.plans) {
    if (plan.status == LoopStatus::Sequential ||
        plan.status == LoopStatus::Doacross) {
      plan.status = LoopStatus::Parallel;
      plan.reason.clear();
      plan.syncs.clear();
      ++forced;
    }
  }
  ASSERT_GT(forced, 0);
  DiagEngine diags;
  AuditReport rep = auditPlans(*cp.program, forged, diags);
  EXPECT_EQ(rep.count(AuditVerdict::Unsound), 1u) << notesOf(rep);
  EXPECT_GE(diags.countWithId("audit-unsound"), 1u) << diags.dump();
}

// ...and by the dynamic oracle.
TEST(PlanAuditTeeth, OracleCatchesFalsifiedPlan) {
  CompiledProgram cp = compile(kRecurrence);
  AnalysisResult forged = cp.pred;
  for (auto& [loop, plan] : forged.plans)
    if (plan.status == LoopStatus::Sequential ||
        plan.status == LoopStatus::Doacross) {
      plan.status = LoopStatus::Parallel;
      plan.syncs.clear();
    }
  RaceOracle oracle(*cp.program, forged);
  InterpOptions opt;
  opt.plans = &forged;
  opt.race = &oracle;
  execute(*cp.program, opt);
  EXPECT_GE(oracle.violationCount(), 1u)
      << oracle.report(cp.program->interner);
}

// Scalar teeth: checkScalars is the only static check that a scalar
// assigned and read in the body is declared private, copied out, or
// reduced. A plan forged to drop that declaration must leave the loop
// Inconclusive (deferred to the oracle) with a note naming the scalar,
// while the genuine plan audits Independent.
void expectScalarFlagged(const CompiledProgram& cp,
                         const AnalysisResult& forged, const ForStmt* loop,
                         const std::string& scalar) {
  auto auditOf = [&](const AnalysisResult& ar) -> LoopAudit {
    DiagEngine diags;
    AuditReport rep = auditPlans(*cp.program, ar, diags);
    for (const LoopAudit& la : rep.loops)
      if (la.loop == loop) return la;
    ADD_FAILURE() << "loop " << loop->loop_id << " was not audited";
    return {};
  };
  EXPECT_EQ(auditOf(cp.pred).verdict, AuditVerdict::Independent);
  LoopAudit la = auditOf(forged);
  EXPECT_EQ(la.verdict, AuditVerdict::Inconclusive);
  bool noted = false;
  for (const auto& n : la.notes)
    noted |= n.find("scalar '" + scalar +
                    "' is assigned and read in the body") !=
             std::string::npos;
  EXPECT_TRUE(noted) << "no scalar note among " << la.notes.size()
                     << " note(s)";
}

TEST(PlanAuditTeeth, AuditorFlagsDroppedReduction) {
  CompiledProgram cp = compile(R"(
proc main() {
  real a[64];
  real s; s = 0.0;
  for i = 0 to 63 { a[i] = noise(i); }
  for i = 0 to 63 { s = s + a[i]; }
  sink(s);
}
)");
  AnalysisResult forged = cp.pred;
  const ForStmt* target = nullptr;
  for (auto& [loop, plan] : forged.plans) {
    if (plan.status != LoopStatus::Parallel || plan.reductions.empty())
      continue;
    plan.reductions.clear();
    target = loop;
  }
  ASSERT_NE(target, nullptr);
  expectScalarFlagged(cp, forged, target, "s");
}

TEST(PlanAuditTeeth, AuditorFlagsDroppedPrivateScalar) {
  CompiledProgram cp = compile(R"(
proc main() {
  real a[64];
  real b[64];
  real t;
  for i = 0 to 63 { b[i] = noise(i); }
  for i = 0 to 63 {
    t = b[i] * 2.0;
    a[i] = t + 1.0;
  }
  sink(a[5]);
}
)");
  AnalysisResult forged = cp.pred;
  const ForStmt* target = nullptr;
  for (auto& [loop, plan] : forged.plans) {
    if (plan.status != LoopStatus::Parallel || plan.private_scalars.empty())
      continue;
    plan.private_scalars.clear();
    target = loop;
  }
  ASSERT_NE(target, nullptr);
  expectScalarFlagged(cp, forged, target, "t");
}

// A clean doall with a guard is certified Independent.
TEST(PlanAuditTeeth, CertifiesGuardedDoall) {
  CompiledProgram cp = compile(R"(
proc main() {
  real a[64];
  for i = 0 to 63 {
    if (i > 3) { a[i] = 1.0; }
    else { a[i] = 2.0; }
  }
  sink(a[8]);
}
)");
  DiagEngine diags;
  AuditReport rep = auditPlans(*cp.program, cp.pred, diags);
  ASSERT_EQ(rep.auditedCount(), 1u);
  EXPECT_EQ(rep.loops[0].verdict, AuditVerdict::Independent) << notesOf(rep);
  EXPECT_GT(rep.loops[0].pairs_independent, 0u);
}

// Reshape through a call: the callee views the 2-D array as 1-D; the
// linearized conflict system still certifies column-disjointness.
TEST(PlanAuditTeeth, LinearizationHandlesReshape) {
  CompiledProgram cp = compile(R"(
proc fill(real v[n], int n) {
  for j = 0 to n - 1 {
    v[j] = 1.0;
  }
}
proc main() {
  real a[8, 8];
  for i = 0 to 7 {
    a[i, 0] = 2.0;
  }
  fill(a, 64);
  sink(a[3, 0]);
}
)");
  DiagEngine diags;
  AuditReport rep = auditPlans(*cp.program, cp.pred, diags);
  for (const auto& la : rep.loops)
    EXPECT_NE(la.verdict, AuditVerdict::Unsound)
        << la.loop->loop_id << "\n"
        << notesOf(rep);
}

}  // namespace
}  // namespace padfa
