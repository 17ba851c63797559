// Deeper MF semantics tests: scoping, return, intrinsic edge cases,
// negative steps, copy-out scalars, reduction identities, and runtime
// statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "audit/race_oracle.h"
#include "dataflow/analysis.h"
#include "interp/interp.h"
#include "lang/parser.h"
#include "lang/sema.h"

namespace padfa {
namespace {

struct Prog {
  std::unique_ptr<Program> program;
  AnalysisResult pred;
};

Prog build(std::string_view src) {
  Prog p;
  DiagEngine diags;
  p.program = parseProgram(src, diags);
  EXPECT_NE(p.program, nullptr) << diags.dump();
  if (!p.program) return p;
  EXPECT_TRUE(analyze(*p.program, diags)) << diags.dump();
  p.pred = analyzeProgram(*p.program, AnalysisConfig::predicated());
  return p;
}

double checksum(std::string_view src) {
  Prog p = build(src);
  return execute(*p.program, {}).checksum;
}

TEST(Semantics, BlockScopedDeclsResetPerIteration) {
  // `t` is re-declared (and zero-initialized) every iteration.
  EXPECT_DOUBLE_EQ(checksum(R"(
proc main() {
  real total; total = 0.0;
  for i = 0 to 4 {
    real t;
    t = t + 1.0;
    total = total + t;
  }
  sink(total);
}
)"),
                   5.0);
}

TEST(Semantics, DeclInitializersEvaluate) {
  EXPECT_DOUBLE_EQ(checksum(R"(
proc main() {
  int a; a = 3;
  int b; b = a * 2 + 1;
  real c; c = b * 0.5;
  sink(c);
}
)"),
                   3.5);
}

TEST(Semantics, ReturnUnwindsNestedBlocks) {
  EXPECT_DOUBLE_EQ(checksum(R"(
proc main() {
  real x; x = 1.0;
  for i = 0 to 9 {
    if (i == 3) {
      sink(x + i);
      return;
    }
    x = x + 1.0;
  }
  sink(100.0);
}
)"),
                   4.0 + 3.0);  // x became 4 after i=0,1,2; sink(4+3)
}

TEST(Semantics, ReturnFromCalleeOnly) {
  EXPECT_DOUBLE_EQ(checksum(R"(
proc maybe(real v[1], int stop) {
  if (stop > 0) { return; }
  v[0] = 7.0;
}
proc main() {
  real a[1];
  maybe(a, 1);
  sink(a[0]);   // 0: callee returned before writing
  maybe(a, 0);
  sink(a[0]);   // 7
}
)"),
                   7.0);
}

TEST(Semantics, NegativeStepLoops) {
  EXPECT_DOUBLE_EQ(checksum(R"(
proc main() {
  real s; s = 0.0;
  for i = 10 to 1 step 0 - 2 { s = s + i; }
  sink(s);
}
)"),
                   10 + 8 + 6 + 4 + 2);
}

TEST(Semantics, LoopsEndingAtInt64Limits) {
  // The last iteration sits at the int64 limit, where an index stepped
  // past the bound before the bound test overflows and never fails it.
  // Each loop runs exactly 3 iterations on every execution path.
  for (const char* src : {R"(
proc main() {
  int c; c = 0;
  for i = 9223372036854775805 to 9223372036854775807 { c = c + 1; }
  sink(c);
}
)",
                          R"(
proc main() {
  int c; c = 0;
  for i = -9223372036854775806 to -9223372036854775807 - 1 step -1 {
    c = c + 1;
  }
  sink(c);
}
)"}) {
    Prog p = build(src);
    EXPECT_EQ(execute(*p.program, {}).checksum, 3.0) << src;
    for (unsigned threads : {1u, 4u}) {
      InterpOptions opt;
      opt.plans = &p.pred;
      opt.num_threads = threads;
      EXPECT_EQ(execute(*p.program, opt).checksum, 3.0)
          << src << "T=" << threads;
    }
    RaceOracle oracle(*p.program, p.pred);
    InterpOptions race;
    race.plans = &p.pred;
    race.race = &oracle;
    EXPECT_EQ(execute(*p.program, race).checksum, 3.0) << src;
    EXPECT_EQ(oracle.violationCount(), 0u) << src;
  }
}

TEST(Semantics, ZeroTripLoops) {
  EXPECT_DOUBLE_EQ(checksum(R"(
proc main() {
  real s; s = 5.0;
  for i = 3 to 2 { s = s + 100.0; }
  sink(s);
}
)"),
                   5.0);
}

TEST(Semantics, IntrinsicEdgeCases) {
  EXPECT_DOUBLE_EQ(checksum(R"(
proc main() {
  int a; a = min(3, -2);
  int b; b = max(3, -2);
  int c; c = abs(0 - 9);
  real d; d = sqrt(16.0);
  real e; e = min(1.5, 2);
  sink(a + b + c + d + e);
}
)"),
                   -2 + 3 + 9 + 4.0 + 1.5);
}

TEST(Semantics, ShortCircuitEvaluation) {
  // The second operand of && must not evaluate when the first is false:
  // here it would divide by zero.
  EXPECT_DOUBLE_EQ(checksum(R"(
proc main() {
  int z; z = 0;
  int r; r = 0;
  if (z != 0 && 10 / z > 1) { r = 1; }
  if (z == 0 || 10 / z > 1) { r = r + 2; }
  sink(r);
}
)"),
                   2.0);
}

TEST(Semantics, IntegerModuloAndNegatives) {
  EXPECT_DOUBLE_EQ(checksum(R"(
proc main() {
  int a; a = 7 % 3;
  int b; b = 0 - 7;
  int c; c = b / 2;
  sink(a + c);
}
)"),
                   1 - 3);  // C++ truncation semantics
}

TEST(Semantics, CopyOutScalarsInParallelLoop) {
  // `last` is written every iteration: the parallel version must copy
  // out the final iteration's value.
  Prog p = build(R"(
proc main() {
  real a[100];
  real last; last = 0.0;
  for i = 0 to 99 {
    a[i] = noise(i);
    last = a[i] * 2.0;
  }
  sink(last);
}
)");
  InterpStats seq = execute(*p.program, {});
  InterpOptions opt;
  opt.plans = &p.pred;
  opt.num_threads = 4;
  InterpStats par = execute(*p.program, opt);
  EXPECT_DOUBLE_EQ(par.checksum, seq.checksum);
  EXPECT_GE(par.parallel_loops_entered, 1u);
}

TEST(Semantics, MinMaxReductionsParallel) {
  Prog p = build(R"(
proc main() {
  real a[5000];
  for i = 0 to 4999 { a[i] = noise(i); }
  real lo; lo = 1000000.0;
  real hi; hi = 0.0 - 1000000.0;
  for i = 0 to 4999 {
    lo = min(lo, a[i]);
    hi = max(hi, a[i]);
  }
  sink(lo);
  sink(hi);
}
)");
  InterpStats seq = execute(*p.program, {});
  InterpOptions opt;
  opt.plans = &p.pred;
  opt.num_threads = 4;
  InterpStats par = execute(*p.program, opt);
  // Min/max reductions are exact (no reassociation error).
  EXPECT_DOUBLE_EQ(par.checksum, seq.checksum);
}

TEST(Semantics, ProductReductionParallel) {
  Prog p = build(R"(
proc main() {
  real a[64];
  for i = 0 to 63 { a[i] = 1.0 + noise(i) * 0.01; }
  real prod; prod = 1.0;
  for i = 0 to 63 { prod = prod * a[i]; }
  sink(prod);
}
)");
  InterpStats seq = execute(*p.program, {});
  InterpOptions opt;
  opt.plans = &p.pred;
  opt.num_threads = 3;
  InterpStats par = execute(*p.program, opt);
  EXPECT_NEAR(par.checksum, seq.checksum, 1e-12 * std::abs(seq.checksum));
}

TEST(Semantics, RuntimeTestStatisticsTracked) {
  Prog p = build(R"(
proc kernel(real x[300], int d) {
  for i = 100 to 199 { x[i] = x[i - d] + 1.0; }
}
proc main() {
  real x[300];
  for j = 0 to 299 { x[j] = noise(j); }
  kernel(x, 0 - 100);
  kernel(x, 3);
  sink(x[150]);
}
)");
  InterpOptions opt;
  opt.plans = &p.pred;
  opt.num_threads = 2;
  InterpStats s = execute(*p.program, opt);
  EXPECT_EQ(s.runtime_tests_evaluated, 2u);
  EXPECT_EQ(s.runtime_tests_passed, 1u);  // d=150 passes, d=3 fails
  EXPECT_GT(s.runtime_test_atoms, 0u);
}

TEST(Semantics, SimulatedTimeNoGreaterThanWallOnSingleCore) {
  Prog p = build(R"(
proc main() {
  real a[20000];
  for i = 0 to 19999 { a[i] = noise(i) * 2.0 + 1.0; }
  sink(a[5]);
}
)");
  InterpOptions opt;
  opt.plans = &p.pred;
  opt.num_threads = 4;
  InterpStats s = execute(*p.program, opt);
  EXPECT_GT(s.simulated_seconds, 0.0);
  EXPECT_LE(s.simulated_seconds, s.total_seconds * 1.5 + 0.01);
}

TEST(Semantics, SinkCountsAndAccumulates) {
  Prog p = build(R"(
proc main() {
  for i = 1 to 4 { sink(i); }
}
)");
  InterpStats s = execute(*p.program, {});
  EXPECT_EQ(s.sink_count, 4u);
  EXPECT_DOUBLE_EQ(s.checksum, 10.0);
}

}  // namespace
}  // namespace padfa
