// Predicate-aware value-range analysis (DESIGN.md §15): interval lattice
// units, flow-sensitive refinement through branches and loops, the static
// runtime-test discharge and its two-leg verification (auditor, race
// oracle), and the PADFA_NO_VRA compatibility knob.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "audit/plan_audit.h"
#include "audit/race_oracle.h"
#include "corpus/corpus.h"
#include "driver/padfa.h"
#include "driver/plan_signature.h"
#include "interp/interp.h"
#include "predicate/pred.h"
#include "vra/range.h"
#include "vra/vra.h"

namespace padfa {
namespace {

using vra::Range;

CompiledProgram compile(const std::string& src) {
  DiagEngine diags;
  auto cp = compileSource(src, diags);
  EXPECT_TRUE(cp.has_value()) << diags.dump();
  return std::move(*cp);
}

CompiledProgram compileEntry(const CorpusEntry& e) {
  DiagEngine diags;
  auto cp = compileSource(instantiate(e), diags);
  EXPECT_TRUE(cp.has_value()) << e.name << ": " << diags.dump();
  return std::move(*cp);
}

const VarDecl* findVar(const CompiledProgram& cp, std::string_view name) {
  for (const auto& proc : cp.program->procs)
    for (const VarDecl* d : proc->all_vars)
      if (cp.interner().str(d->name) == name) return d;
  return nullptr;
}

const Stmt* findStmt(const BlockStmt& block, StmtKind kind) {
  for (const auto& st : block.stmts) {
    if (st->kind == kind) return st.get();
    if (st->kind == StmtKind::If) {
      const auto& i = static_cast<const IfStmt&>(*st);
      if (const Stmt* s = findStmt(*i.then_block, kind)) return s;
      if (i.else_block)
        if (const Stmt* s = findStmt(*i.else_block, kind)) return s;
    } else if (st->kind == StmtKind::For) {
      if (const Stmt* s =
              findStmt(*static_cast<const ForStmt&>(*st).body, kind))
        return s;
    }
  }
  return nullptr;
}

/// Scoped PADFA_NO_VRA equivalent for A/B compiles within one process.
struct VraOff {
  VraOff() { vra::setVraEnabled(false); }
  ~VraOff() { vra::clearVraEnabledOverride(); }
};

// ------------------------------------------------- lattice units ----

TEST(VraRange, Constructors) {
  EXPECT_TRUE(Range::top().isTop());
  EXPECT_TRUE(Range::bottom().empty);
  EXPECT_EQ(Range::constant(7).asConstant(), std::optional<int64_t>{7});
  EXPECT_TRUE(Range::of(int64_t{5}, int64_t{3}).empty);  // crossed bounds
  EXPECT_EQ(Range::boolean(), Range::of(int64_t{0}, int64_t{1}));
  EXPECT_TRUE(Range::of(std::nullopt, int64_t{4}).contains(-100));
  EXPECT_FALSE(Range::of(std::nullopt, int64_t{4}).contains(5));
}

TEST(VraRange, JoinIsHullMeetIsIntersection) {
  Range a = Range::of(int64_t{1}, int64_t{3});
  Range b = Range::of(int64_t{5}, int64_t{9});
  EXPECT_EQ(join(a, b), Range::of(int64_t{1}, int64_t{9}));
  EXPECT_TRUE(meet(a, b).empty);  // disjoint
  EXPECT_EQ(join(a, Range::bottom()), a);
  EXPECT_EQ(meet(a, Range::top()), a);
  EXPECT_TRUE(meet(a, Range::bottom()).empty);
  // Unbounded sides join to unbounded, meet to the finite bound.
  Range half = Range::of(std::nullopt, int64_t{2});
  EXPECT_EQ(join(a, half), Range::of(std::nullopt, int64_t{3}));
  EXPECT_EQ(meet(a, half), Range::of(int64_t{1}, int64_t{2}));
}

TEST(VraRange, WideningPushesMovedBoundsNarrowingRecoversThem) {
  Range prev = Range::of(int64_t{0}, int64_t{0});
  Range next = Range::of(int64_t{0}, int64_t{1});
  Range wide = widen(prev, next);
  EXPECT_EQ(wide, Range::of(int64_t{0}, std::nullopt));  // hi moved up
  EXPECT_EQ(widen(prev, prev), prev);                    // stable: unchanged
  EXPECT_EQ(narrow(wide, Range::of(int64_t{0}, int64_t{9})),
            Range::of(int64_t{0}, int64_t{9}));
  // Finite widened bounds are kept over the narrowing iterate.
  EXPECT_EQ(narrow(Range::of(int64_t{0}, int64_t{5}),
                   Range::of(int64_t{1}, int64_t{4})),
            Range::of(int64_t{0}, int64_t{5}));
}

TEST(VraRange, ArithmeticIsConservative) {
  Range a = Range::of(int64_t{1}, int64_t{2});
  Range b = Range::of(int64_t{10}, int64_t{20});
  EXPECT_EQ(add(a, b), Range::of(int64_t{11}, int64_t{22}));
  EXPECT_EQ(sub(b, a), Range::of(int64_t{8}, int64_t{19}));
  EXPECT_EQ(neg(a), Range::of(int64_t{-2}, int64_t{-1}));
  EXPECT_EQ(mul(Range::of(int64_t{2}, int64_t{3}),
                Range::of(int64_t{-1}, int64_t{4})),
            Range::of(int64_t{-3}, int64_t{12}));
  EXPECT_EQ(mul(a, Range::constant(0)), Range::constant(0));
  EXPECT_EQ(div(Range::of(int64_t{7}, int64_t{15}), Range::constant(2)),
            Range::of(int64_t{3}, int64_t{7}));
  EXPECT_TRUE(div(a, Range::of(int64_t{-1}, int64_t{1})).isTop());
  EXPECT_EQ(rem(Range::of(int64_t{0}, int64_t{100}), Range::constant(8)),
            Range::of(int64_t{0}, int64_t{7}));
  EXPECT_EQ(rem(Range::of(int64_t{-9}, int64_t{9}), Range::constant(8)),
            Range::of(int64_t{-7}, int64_t{7}));
  // Bottom is absorbing.
  EXPECT_TRUE(add(Range::bottom(), a).empty);
  EXPECT_TRUE(mul(a, Range::bottom()).empty);
}

TEST(VraRange, OverflowDropsBoundsInsteadOfClamping) {
  Range big = Range::constant(INT64_MAX);
  Range one = Range::constant(1);
  EXPECT_TRUE(add(big, one).isTop());
  Range partial = add(Range::of(int64_t{0}, INT64_MAX), one);
  EXPECT_EQ(partial.lo, std::optional<int64_t>{1});
  EXPECT_FALSE(partial.hi.has_value());
  EXPECT_FALSE(mul(big, Range::constant(2)).hi.has_value());
}

TEST(VraRange, MinMaxAbsNoise) {
  Range a = Range::of(int64_t{-5}, int64_t{3});
  EXPECT_EQ(abs_(a), Range::of(int64_t{0}, int64_t{5}));
  EXPECT_EQ(min_(a, Range::constant(0)), Range::of(int64_t{-5}, int64_t{0}));
  EXPECT_EQ(max_(a, Range::constant(0)), Range::of(int64_t{0}, int64_t{3}));
  EXPECT_EQ(vra::inoise(Range::constant(4)),
            Range::of(int64_t{0}, int64_t{3}));
  EXPECT_EQ(vra::inoise(Range::constant(1)), Range::constant(0));
  EXPECT_EQ(vra::inoise(Range::constant(-2)), Range::constant(0));
  EXPECT_EQ(vra::inoise(Range::top()), Range::of(int64_t{0}, std::nullopt));
}

// -------------------------------------- flow-sensitive refinement ----

const char* kBranches = R"(
proc main() {
  int x; x = inoise(3, 100);
  real a[4];
  if (x < 10) {
    a[0] = 1.0;
  } else {
    a[1] = 2.0;
  }
  sink(a[0] + a[1]);
}
)";

TEST(VraAnalysis, BranchConditionsRefineTheEnvironment) {
  CompiledProgram cp = compile(kBranches);
  vra::RangeAnalysis ra(*cp.program);
  ASSERT_TRUE(ra.enabled());
  const VarDecl* x = findVar(cp, "x");
  ASSERT_NE(x, nullptr);
  const Stmt* ifs = findStmt(*cp.program->procs[0]->body, StmtKind::If);
  ASSERT_NE(ifs, nullptr);
  const auto& i = static_cast<const IfStmt&>(*ifs);
  const Stmt* then_first = i.then_block->stmts[0].get();
  const Stmt* else_first = i.else_block->stmts[0].get();

  EXPECT_EQ(ra.rangeAt(ifs, x), Range::of(int64_t{0}, int64_t{99}));
  EXPECT_EQ(ra.rangeAt(then_first, x), Range::of(int64_t{0}, int64_t{9}));
  EXPECT_EQ(ra.rangeAt(else_first, x), Range::of(int64_t{10}, int64_t{99}));

  // The same refinement through the proof interface.
  Pred p = Pred::fromCondition(*i.cond, cp.program->interner);
  EXPECT_TRUE(ra.proveTrue(then_first, p));
  EXPECT_TRUE(ra.proveFalse(else_first, p));
  EXPECT_EQ(ra.provePred(ifs, p), vra::Proof::Unknown);
}

TEST(VraAnalysis, RefineEnvIsDirectlyCallable) {
  CompiledProgram cp = compile(kBranches);
  const VarDecl* x = findVar(cp, "x");
  const Stmt* ifs = findStmt(*cp.program->procs[0]->body, StmtKind::If);
  const auto& i = static_cast<const IfStmt&>(*ifs);
  Pred p = Pred::fromCondition(*i.cond, cp.program->interner);
  vra::RangeEnv env;
  env.set(x, Range::of(int64_t{0}, int64_t{99}));
  vra::RangeEnv refined = vra::refineEnv(env, p);
  EXPECT_EQ(refined.get(x), Range::of(int64_t{0}, int64_t{9}));
}

TEST(VraAnalysis, LoopIndexGetsBodyBoundsViaWideningAndNarrowing) {
  CompiledProgram cp = compile(R"(
proc main() {
  int s; s = 0;
  real a[16];
  for i = 0 to 9 {
    a[i] = noise(i);
    s = s + 1;
  }
  sink(a[0] + s);
}
)");
  vra::RangeAnalysis ra(*cp.program);
  ASSERT_TRUE(ra.enabled());
  const Stmt* fors = findStmt(*cp.program->procs[0]->body, StmtKind::For);
  ASSERT_NE(fors, nullptr);
  const auto& loop = static_cast<const ForStmt&>(*fors);
  const Stmt* body_first = loop.body->stmts[0].get();
  // Narrowing recovers the widened upper bound of the index.
  EXPECT_EQ(ra.rangeAt(body_first, loop.index_decl),
            Range::of(int64_t{0}, int64_t{9}));
  // The accumulator keeps its proven lower bound; the upper bound is
  // honestly unknown (it grows with the trip count).
  const VarDecl* s = findVar(cp, "s");
  Range sr = ra.rangeAt(body_first, s);
  EXPECT_EQ(sr.lo, std::optional<int64_t>{0});
}

TEST(VraAnalysis, DisabledAnalysisDegradesToTopAndUnknown) {
  VraOff off;
  CompiledProgram cp = compile(kBranches);
  vra::RangeAnalysis ra(*cp.program);
  EXPECT_FALSE(ra.enabled());
  const VarDecl* x = findVar(cp, "x");
  const Stmt* ifs = findStmt(*cp.program->procs[0]->body, StmtKind::If);
  const auto& i = static_cast<const IfStmt&>(*ifs);
  EXPECT_TRUE(ra.rangeAt(i.then_block->stmts[0].get(), x).isTop());
  Pred p = Pred::fromCondition(*i.cond, cp.program->interner);
  EXPECT_EQ(ra.provePred(i.then_block->stmts[0].get(), p),
            vra::Proof::Unknown);
}

// --------------------------------------- static test discharge ------

const char* kProvableIndependence = R"(
proc main() {
  int n; n = 64;
  int d; d = inoise(5, 1) + n;
  real x[192];
  for j = 0 to 191 { x[j] = noise(j); }
  for i = 64 to 127 { x[i] = x[i - d] * 0.5; }
  sink(x[100]);
}
)";

TEST(VraPromotion, ProvablyTrueTestPromotesAndRetainsTheTest) {
  CompiledProgram cp = compile(kProvableIndependence);
  const LoopPlan* promoted = nullptr;
  for (const auto& [loop, plan] : cp.pred.plans)
    if (plan.vra_action == VraAction::PromotedParallel) promoted = &plan;
  ASSERT_NE(promoted, nullptr);
  EXPECT_EQ(promoted->status, LoopStatus::Parallel);
  // The discharged test is retained so both verification legs can
  // re-derive the promotion independently.
  EXPECT_FALSE(promoted->runtime_test.isTrue());
}

TEST(VraPromotion, ProvablyFalseTestDemotesToSequential) {
  CompiledProgram cp = compile(R"(
proc main() {
  int d; d = inoise(5, 1) + 1;
  real x[64];
  for j = 0 to 63 { x[j] = noise(j); }
  for i = 1 to 63 { x[i] = x[i - d] * 0.5; }
  sink(x[40]);
}
)");
  const LoopPlan* demoted = nullptr;
  for (const auto& [loop, plan] : cp.pred.plans)
    if (plan.vra_action == VraAction::DemotedSequential) demoted = &plan;
  ASSERT_NE(demoted, nullptr);
  EXPECT_EQ(demoted->status, LoopStatus::Sequential);
}

TEST(VraPromotion, PromotedDispatchSkipsTheRuntimeTest) {
  CompiledProgram cp = compile(kProvableIndependence);
  InterpOptions opt;
  opt.plans = &cp.pred;
  InterpStats st = execute(*cp.program, opt);
  EXPECT_GE(st.runtime_tests_pruned, 1u);
  {
    VraOff off;
    CompiledProgram cold = compile(kProvableIndependence);
    InterpOptions copt;
    copt.plans = &cold.pred;
    InterpStats cst = execute(*cold.program, copt);
    EXPECT_EQ(cst.runtime_tests_pruned, 0u);
    EXPECT_GE(cst.runtime_tests_evaluated, 1u);
  }
}

// --------------------------------- corpus-wide two-leg agreement ----

// Every corpus promotion must be independently re-verified by both
// verification legs: the plan auditor does not refute it, and the race
// oracle observes no violation on the reference execution. Floor: at
// least two corpus RuntimeTest loops are promoted.
TEST(VraCorpus, EveryPromotionSurvivesBothVerificationLegs) {
  size_t promotions = 0;
  for (const auto& e : corpus()) {
    CompiledProgram cp = compileEntry(e);
    std::vector<const ForStmt*> promoted;
    for (const auto& [loop, plan] : cp.pred.plans)
      if (plan.status == LoopStatus::Parallel &&
          plan.vra_action == VraAction::PromotedParallel)
        promoted.push_back(loop);
    if (promoted.empty()) continue;
    promotions += promoted.size();

    // Leg 1: static auditor.
    DiagEngine diags;
    AuditReport audit = auditPlans(*cp.program, cp.pred, diags);
    EXPECT_TRUE(audit.clean()) << e.name << ":\n" << diags.dump();
    for (const auto& la : audit.loops)
      for (const ForStmt* loop : promoted)
        if (la.loop == loop)
          EXPECT_NE(la.verdict, AuditVerdict::Unsound) << e.name;

    // Leg 2: dynamic race oracle over the reference execution.
    RaceOracle oracle(*cp.program, cp.pred);
    InterpOptions opt;
    opt.plans = &cp.pred;
    opt.race = &oracle;
    execute(*cp.program, opt);
    EXPECT_EQ(oracle.violationCount(), 0u)
        << e.name << ":\n" << oracle.report(cp.program->interner);
  }
  EXPECT_GE(promotions, 2u);
}

// ------------------------------------------------- teeth ------------

// A forged promotion — a genuine recurrence hand-stamped PromotedParallel
// with a test that does not re-prove — must be caught by both legs:
// auditor Unsound, and the oracle reports the failed promoted test.
TEST(VraTeeth, ForgedPromotionIsCaughtByBothLegs) {
  CompiledProgram cp = compile(R"(
proc main() {
  real a[64];
  for i = 1 to 63 {
    a[i] = a[i - 1] + 1.0;
  }
  sink(a[63]);
}
)");
  AnalysisResult forged = cp.pred;
  int forced = 0;
  for (auto& [loop, plan] : forged.plans) {
    if (plan.status != LoopStatus::Sequential &&
        plan.status != LoopStatus::Doacross)
      continue;
    plan.status = LoopStatus::Parallel;
    plan.vra_action = VraAction::PromotedParallel;
    plan.runtime_test = Pred::never();
    plan.syncs.clear();
    plan.reason.clear();
    ++forced;
  }
  ASSERT_GT(forced, 0);

  DiagEngine diags;
  AuditReport audit = auditPlans(*cp.program, forged, diags);
  EXPECT_EQ(audit.count(AuditVerdict::Unsound), 1u);
  EXPECT_GE(diags.countWithId("audit-unsound"), 1u) << diags.dump();

  RaceOracle oracle(*cp.program, forged);
  InterpOptions opt;
  opt.plans = &forged;
  opt.race = &oracle;
  execute(*cp.program, opt);
  ASSERT_GE(oracle.violationCount(), 1u);
  bool saw_promoted_failure = false;
  for (const auto& v : oracle.verdicts())
    if (v.violation &&
        v.detail.find("promoted run-time test") != std::string::npos)
      saw_promoted_failure = true;
  EXPECT_TRUE(saw_promoted_failure)
      << oracle.report(cp.program->interner);
}

// ----------------------------------------- PADFA_NO_VRA knob --------

// With VRA off, plans must be byte-identical to the pre-VRA engine:
// no " vra=" marker anywhere, and for programs where VRA changed nothing
// the whole signature matches the VRA-on compile byte for byte.
TEST(VraKnob, DisabledVraYieldsByteIdenticalSignatures) {
  size_t entries_changed = 0;
  for (const auto& e : corpus()) {
    CompiledProgram on = compileEntry(e);
    const std::string sig_on = planSignature(on);
    bool any_action = false;
    for (const auto& [loop, plan] : on.pred.plans)
      any_action |= plan.vra_action != VraAction::None;
    {
      VraOff off_guard;
      CompiledProgram off = compileEntry(e);
      const std::string sig_off = planSignature(off);
      EXPECT_EQ(sig_off.find(" vra="), std::string::npos)
          << e.name << ": VRA marker leaked into the no-VRA signature";
      if (any_action) {
        ++entries_changed;
        EXPECT_NE(sig_on, sig_off) << e.name;
      } else {
        EXPECT_EQ(sig_on, sig_off) << e.name;
      }
    }
  }
  // Sanity: the knob gates something real on this corpus.
  EXPECT_GE(entries_changed, 2u);
}

}  // namespace
}  // namespace padfa
