// Interpreter tests: sequential semantics, parallel execution equivalence
// (privatization, reductions, copy-out, two-version loops), ELPD
// instrumentation verdicts, and runtime fault detection.
#include <gtest/gtest.h>

#include "audit/race_oracle.h"
#include "dataflow/analysis.h"
#include "interp/interp.h"
#include "lang/parser.h"
#include "lang/sema.h"

namespace padfa {
namespace {

struct Built {
  std::unique_ptr<Program> program;
  AnalysisResult pred;
};

Built buildProgram(std::string_view src) {
  Built out;
  DiagEngine diags;
  out.program = parseProgram(src, diags);
  EXPECT_NE(out.program, nullptr) << diags.dump();
  if (!out.program) return out;
  EXPECT_TRUE(analyze(*out.program, diags)) << diags.dump();
  out.pred = analyzeProgram(*out.program, AnalysisConfig::predicated());
  return out;
}

double seqChecksum(const Built& b) {
  InterpStats s = execute(*b.program, {});
  return s.checksum;
}

InterpStats parRun(const Built& b, unsigned threads) {
  InterpOptions opt;
  opt.plans = &b.pred;
  opt.num_threads = threads;
  return execute(*b.program, opt);
}

TEST(Interp, ArithmeticAndAssignment) {
  auto b = buildProgram(R"(
proc main() {
  int x; real y;
  x = 3 + 4 * 2;
  y = 1.5;
  y = y * 2.0 + x;
  sink(y);
}
)");
  EXPECT_DOUBLE_EQ(seqChecksum(b), 1.5 * 2.0 + 11);
}

TEST(Interp, IntegerDivisionTruncates) {
  auto b = buildProgram(R"(
proc main() {
  int x; x = 7 / 2; sink(x);
  int y; y = 7 % 2; sink(y);
}
)");
  EXPECT_DOUBLE_EQ(seqChecksum(b), 3 + 1);
}

TEST(Interp, LoopsAndArrays) {
  auto b = buildProgram(R"(
proc main() {
  real a[10];
  for i = 0 to 9 { a[i] = i * 2; }
  real s; s = 0.0;
  for i = 0 to 9 { s = s + a[i]; }
  sink(s);
}
)");
  EXPECT_DOUBLE_EQ(seqChecksum(b), 90.0);
}

TEST(Interp, StepLoops) {
  auto b = buildProgram(R"(
proc main() {
  int s; s = 0;
  for i = 0 to 10 step 3 { s = s + i; }
  sink(s);
}
)");
  EXPECT_DOUBLE_EQ(seqChecksum(b), 0 + 3 + 6 + 9);
}

TEST(Interp, IfElseChains) {
  auto b = buildProgram(R"(
proc main() {
  int s; s = 0;
  for i = 0 to 9 {
    if (i < 3) { s = s + 1; }
    else if (i < 7) { s = s + 10; }
    else { s = s + 100; }
  }
  sink(s);
}
)");
  EXPECT_DOUBLE_EQ(seqChecksum(b), 3 * 1 + 4 * 10 + 3 * 100);
}

TEST(Interp, ProcedureCallsByValueAndReference) {
  auto b = buildProgram(R"(
proc scale(real v[n], int n, real k) {
  for i = 0 to n - 1 { v[i] = v[i] * k; }
}
proc bump(int x) { x = x + 100; }
proc main() {
  real a[4];
  for i = 0 to 3 { a[i] = i + 1; }
  scale(a, 4, 2.0);
  int z; z = 5;
  bump(z);
  sink(a[3] + z);  // arrays by reference (8), scalars by value (5)
}
)");
  EXPECT_DOUBLE_EQ(seqChecksum(b), 8.0 + 5.0);
}

TEST(Interp, ReshapeViewSharesBuffer) {
  auto b = buildProgram(R"(
proc fill1d(real v[n], int n) {
  for i = 0 to n - 1 { v[i] = i; }
}
proc main() {
  real g[4, 5];
  fill1d(g, 20);
  sink(g[2, 3]);  // row-major flat index 2*5+3 = 13
}
)");
  EXPECT_DOUBLE_EQ(seqChecksum(b), 13.0);
}

TEST(Interp, NoiseIsDeterministic) {
  EXPECT_DOUBLE_EQ(noiseValue(42), noiseValue(42));
  EXPECT_NE(noiseValue(1), noiseValue(2));
  EXPECT_GE(noiseValue(7), 0.0);
  EXPECT_LT(noiseValue(7), 1.0);
  EXPECT_GE(inoiseValue(5, 10), 0);
  EXPECT_LT(inoiseValue(5, 10), 10);
}

TEST(Interp, OutOfBoundsThrows) {
  auto b = buildProgram(R"(
proc main() {
  real a[4];
  int i; i = 9;
  a[i] = 1.0;
}
)");
  EXPECT_THROW(execute(*b.program, {}), RuntimeError);
}

TEST(Interp, DivisionByZeroThrows) {
  auto b = buildProgram(R"(
proc main() { int x; int y; y = 0; x = 3 / y; sink(x); }
)");
  EXPECT_THROW(execute(*b.program, {}), RuntimeError);
}

TEST(Interp, MissingMainThrows) {
  auto b = buildProgram("proc helper() { }");
  EXPECT_THROW(execute(*b.program, {}), RuntimeError);
}

TEST(Interp, RuntimeErrorCarriesProcedureCallStack) {
  // A fault three procedures deep must name every frame on the way up so
  // the message reads like a backtrace, not a bare site.
  auto b = buildProgram(R"(
proc inner(real v[n], int n, int i) { v[i] = 1.0; }
proc outer(real v[n], int n) { inner(v, n, 99); }
proc main() {
  real a[4];
  outer(a, 4);
}
)");
  try {
    execute(*b.program, {});
    FAIL() << "expected RuntimeError";
  } catch (const RuntimeError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("in call to 'inner'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("in call to 'outer'"), std::string::npos) << msg;
    // Innermost frame is listed first (closest to the fault).
    EXPECT_LT(msg.find("'inner'"), msg.find("'outer'")) << msg;
  }
}

// ---- parallel execution equivalence ----

TEST(Interp, ParallelSimpleLoopMatchesSequential) {
  auto b = buildProgram(R"(
proc main() {
  real a[1000];
  for i = 0 to 999 { a[i] = noise(i) * 2.0; }
  for i = 0 to 999 { sink(a[i]); }
}
)");
  double seq = seqChecksum(b);
  InterpStats par = parRun(b, 4);
  EXPECT_DOUBLE_EQ(par.checksum, seq);
  EXPECT_GE(par.parallel_loops_entered, 1u);
}

TEST(Interp, ParallelPrivatizationMatchesSequential) {
  auto b = buildProgram(R"(
proc main() {
  real out[200];
  real help[32];
  for i = 0 to 199 {
    for j = 0 to 31 { help[j] = noise(i * 32 + j); }
    real s; s = 0.0;
    for j = 0 to 31 { s = s + help[j] * help[j]; }
    out[i] = s;
  }
  for i = 0 to 199 { sink(out[i]); }
}
)");
  double seq = seqChecksum(b);
  InterpStats par = parRun(b, 4);
  EXPECT_DOUBLE_EQ(par.checksum, seq);
  EXPECT_GE(par.parallel_loops_entered, 1u);
}

TEST(Interp, ParallelReductionMatchesSequentialApprox) {
  auto b = buildProgram(R"(
proc main() {
  real x[10000];
  for i = 0 to 9999 { x[i] = noise(i); }
  real total; total = 0.0;
  for i = 0 to 9999 { total = total + x[i]; }
  sink(total);
}
)");
  double seq = seqChecksum(b);
  InterpStats par = parRun(b, 4);
  // Reduction reassociation: tolerate tiny FP differences.
  EXPECT_NEAR(par.checksum, seq, 1e-9 * std::abs(seq) + 1e-12);
}

TEST(Interp, ParallelCopyOutLastValue) {
  auto b = buildProgram(R"(
proc main() {
  real x[4];
  for i = 0 to 99 { x[0] = i * 1.0; }
  sink(x[0]);
}
)");
  double seq = seqChecksum(b);
  ASSERT_DOUBLE_EQ(seq, 99.0);
  InterpStats par = parRun(b, 4);
  EXPECT_DOUBLE_EQ(par.checksum, seq);
}

TEST(Interp, TwoVersionLoopTakesParallelWhenTestPasses) {
  // Distance-d dependence: with d = 200 > span, the run-time test passes
  // and the loop runs in parallel; result must match sequential.
  auto b = buildProgram(R"(
proc kernel(real x[300], int d) {
  for i = 100 to 199 { x[i] = x[i - d] + 1.0; }
}
proc main() {
  real x[300];
  for j = 0 to 299 { x[j] = noise(j); }
  kernel(x, 100);
  for j = 0 to 299 { sink(x[j]); }
}
)");
  double seq = seqChecksum(b);
  InterpStats par = parRun(b, 4);
  EXPECT_DOUBLE_EQ(par.checksum, seq);
  EXPECT_GE(par.runtime_tests_evaluated, 1u);
}

TEST(Interp, TwoVersionLoopFallsBackWhenTestFails) {
  // d = 5 creates a real dependence: the test must fail and the loop run
  // sequentially, still producing the right answer.
  auto b = buildProgram(R"(
proc kernel(real x[300], int d) {
  for i = 100 to 199 { x[i] = x[i - d] + 1.0; }
}
proc main() {
  real x[300];
  for j = 0 to 299 { x[j] = noise(j); }
  kernel(x, 5);
  for j = 0 to 299 { sink(x[j]); }
}
)");
  double seq = seqChecksum(b);
  InterpStats par = parRun(b, 4);
  EXPECT_DOUBLE_EQ(par.checksum, seq);
  EXPECT_GE(par.runtime_tests_evaluated, 1u);
  EXPECT_EQ(par.runtime_tests_passed, par.runtime_tests_evaluated - 1);
}

TEST(Interp, ProfileRecordsLoopTime) {
  auto b = buildProgram(R"(
proc main() {
  real a[2000];
  for i = 0 to 1999 { a[i] = noise(i); }
  sink(a[7]);
}
)");
  InterpOptions opt;
  opt.profile = true;
  InterpStats s = execute(*b.program, opt);
  ASSERT_EQ(s.profiles.size(), 1u);
  const LoopProfile& p = s.profiles.begin()->second;
  EXPECT_EQ(p.invocations, 1u);
  EXPECT_EQ(p.iterations, 2000u);
  EXPECT_GT(p.seconds, 0.0);
}

// ---- ELPD instrumentation ----

struct ElpdRun {
  Built b;
  RaceOracle collector;
  const ForStmt* loop = nullptr;
};

ElpdRun elpdOn(std::string_view src, uint32_t loop_line) {
  ElpdRun r;
  r.b = buildProgram(src);
  for (const auto& [loop, plan] : r.b.pred.plans)
    if (loop->loc.line == loop_line) r.loop = loop;
  EXPECT_NE(r.loop, nullptr);
  r.collector.instrument(r.loop);
  InterpOptions opt;
  opt.race = &r.collector;
  execute(*r.b.program, opt);
  return r;
}

TEST(Elpd, IndependentLoop) {
  auto r = elpdOn(R"(
proc main() {
  real a[100];
  for i = 0 to 99 { a[i] = noise(i); }
  sink(a[1]);
}
)", 4);
  auto v = r.collector.verdict(r.loop);
  EXPECT_TRUE(v.executed);
  EXPECT_TRUE(v.independent());
  EXPECT_GT(v.accesses, 0u);
}

TEST(Elpd, FlowDependentLoop) {
  auto r = elpdOn(R"(
proc main() {
  real a[100];
  a[0] = 1.0;
  for i = 1 to 99 { a[i] = a[i-1] + 1.0; }
  sink(a[99]);
}
)", 5);
  auto v = r.collector.verdict(r.loop);
  EXPECT_TRUE(v.conflict);
  EXPECT_TRUE(v.flow);
  EXPECT_FALSE(v.parallelizable());
}

TEST(Elpd, PrivatizableLoop) {
  // Each iteration writes then reads help[0]: conflicts across
  // iterations, but no cross-iteration flow.
  auto r = elpdOn(R"(
proc main() {
  real out[50];
  real help[4];
  for i = 0 to 49 {
    help[0] = noise(i);
    out[i] = help[0] * 2.0;
  }
  sink(out[3]);
}
)", 5);
  auto v = r.collector.verdict(r.loop);
  EXPECT_TRUE(v.conflict);
  EXPECT_FALSE(v.flow);
  EXPECT_TRUE(v.privatizable());
}

TEST(Elpd, InputDependentVerdict) {
  // Dependence distance d: parallel per-input iff d outside [1, 99].
  const char* tmpl = R"(
proc kernel(real x[300], int d) {
  for i = 100 to 199 { x[i] = x[i - d] + 1.0; }
}
proc main() {
  real x[300];
  for j = 0 to 299 { x[j] = noise(j); }
  kernel(x, %d);
  sink(x[150]);
}
)";
  char buf[512];
  snprintf(buf, sizeof(buf), tmpl, -100);  // reads x[200..299]: disjoint
  auto r1 = elpdOn(buf, 3);
  EXPECT_TRUE(r1.collector.verdict(r1.loop).parallelizable());
  snprintf(buf, sizeof(buf), tmpl, 7);
  auto r2 = elpdOn(buf, 3);
  EXPECT_FALSE(r2.collector.verdict(r2.loop).parallelizable());
}

TEST(Elpd, ReenteredLoopJudgedPerInvocation) {
  // Each invocation of the inner loop (line 6) touches one element per
  // iteration, but every invocation shifts the elements down by one:
  // judged against the previous invocation's marks, iteration i would
  // seem to read what iteration i - 1 wrote. The outer loop (line 5)
  // really carries that flow.
  const char* src = R"(
proc main() {
  real a[64]; int idx[8];
  for i = 0 to 7 { idx[i] = i; }
  for j = 0 to 3 {
    for i = 0 to 7 { a[idx[i] - j + 8] = a[idx[i] - j + 8] + noise(i); }
  }
  sink(a[9]);
}
)";
  auto inner = elpdOn(src, 6);
  auto v = inner.collector.verdict(inner.loop);
  EXPECT_TRUE(v.executed);
  EXPECT_TRUE(v.independent());
  auto outer = elpdOn(src, 5);
  EXPECT_TRUE(outer.collector.verdict(outer.loop).flow);
}

TEST(Elpd, BodyArrayRebornAtFreedAddressStartsFresh) {
  // Every iteration declares a fresh t, reads its zero t[0], then writes
  // it: no value crosses iterations. The heap may hand a freed t's
  // address to a later iteration's t (which sizes do is up to the
  // allocator); the reborn buffer must not inherit the old marks.
  const char* tmpl = R"(
proc main() {
  real out[64];
  for i = 0 to 63 {
    real t[%d];
    out[i] = t[0];
    t[0] = noise(i);
  }
  sink(out[5]);
}
)";
  for (int n : {1, 2, 4, 8, 16, 64, 1000}) {
    char buf[512];
    snprintf(buf, sizeof(buf), tmpl, n);
    auto r = elpdOn(buf, 4);
    EXPECT_TRUE(r.collector.verdict(r.loop).independent()) << "t[" << n << "]";
  }
}

TEST(Elpd, CalleeArrayRebornAtFreedAddressStartsFresh) {
  // The same fresh-array pattern, declared in a callee called once per
  // iteration.
  auto r = elpdOn(R"(
proc fill(real o[64], int i) {
  real t[8];
  o[i] = t[0];
  t[0] = noise(i);
}
proc main() {
  real out[64];
  for i = 0 to 63 { fill(out, i); }
  sink(out[5]);
}
)", 9);
  EXPECT_TRUE(r.collector.verdict(r.loop).independent());
}

}  // namespace
}  // namespace padfa
