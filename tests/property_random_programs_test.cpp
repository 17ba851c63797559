// Property-based soundness harness: generate random MF programs (loop
// nests with guarded/offset array accesses, scalar accumulations, helper
// calls), then check for every seed that
//   1. frontend + both analyses accept the program without crashing,
//   2. parallel execution under the predicated plans produces the same
//      checksums as sequential execution (the end-to-end soundness
//      oracle: a wrong parallelization decision corrupts data),
//   3. same for the baseline plans,
//   4. compile-time-parallel candidate loops are never refuted by the
//      ELPD run-time test (no cross-iteration flow may be observed in a
//      loop the analysis proved independent/privatizable).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "corpus/corpus.h"
#include "driver/padfa.h"

namespace padfa {
namespace {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 2654435761u + 1) {}
  uint64_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  int range(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(next() % static_cast<uint64_t>(hi - lo + 1));
  }
  bool chance(int percent) { return range(1, 100) <= percent; }

 private:
  uint64_t state_;
};

constexpr int kArraySize = 40;

struct Generator {
  Rng rng;
  int num_arrays;
  int num_scalars;
  std::string src;

  explicit Generator(uint64_t seed) : rng(seed) {
    num_arrays = rng.range(2, 4);
    num_scalars = rng.range(1, 3);
  }

  std::string arr(int k) { return "a" + std::to_string(k); }
  std::string scl(int k) { return "s" + std::to_string(k); }

  // Subscript expression for index variable `iv`, guaranteed in-bounds
  // for loops over [2, kArraySize - 3].
  std::string subscript(const std::string& iv) {
    switch (rng.range(0, 4)) {
      case 0: return iv;
      case 1: return iv + " + 1";
      case 2: return iv + " - 1";
      case 3: return iv + " + 2";
      default: return std::to_string(rng.range(0, kArraySize - 1));
    }
  }

  std::string rhs(const std::string& iv, int depth) {
    switch (rng.range(0, 3)) {
      case 0:
        return "noise(" + iv + " * " + std::to_string(rng.range(2, 9)) +
               " + " + std::to_string(rng.range(0, 99)) + ")";
      case 1:
        return arr(rng.range(0, num_arrays - 1)) + "[" + subscript(iv) +
               "] * 0.5 + 0.25";
      case 2:
        return "sc" + std::to_string(rng.range(0, num_scalars - 1)) +
               " * 0.125 + noise(" + iv + ")";
      default:
        return "noise(" + std::to_string(depth * 100 + rng.range(0, 50)) +
               ")";
    }
  }

  std::string condition(const std::string& iv) {
    switch (rng.range(0, 3)) {
      case 0:
        return "flag" + std::to_string(rng.range(0, 1)) + " > 0";
      case 1:
        return iv + " < " + std::to_string(rng.range(5, kArraySize - 5));
      case 2:
        return "flag0 == " + std::to_string(rng.range(0, 1));
      default:
        return iv + " % 2 == 0";
    }
  }

  void emitLoopBody(const std::string& iv, int depth, int& stmts) {
    int n = rng.range(1, 3);
    for (int s = 0; s < n; ++s) {
      std::string target = arr(rng.range(0, num_arrays - 1));
      std::string assign = target + "[" + subscript(iv) + "] = " +
                           rhs(iv, depth) + ";\n";
      if (rng.chance(35)) {
        src += "      if (" + condition(iv) + ") { " + assign + " }\n";
      } else {
        src += "      " + assign;
      }
      ++stmts;
    }
    if (rng.chance(30)) {
      // Scalar accumulation (sum reduction shape).
      int k = rng.range(0, num_scalars - 1);
      src += "      acc" + std::to_string(k) + " = acc" + std::to_string(k) +
             " + " + arr(rng.range(0, num_arrays - 1)) + "[" + subscript(iv) +
             "];\n";
    }
  }

  std::string generate() {
    src = "proc gfill(real v[m], int m, int seed) {\n"
          "  for q = 0 to m - 1 { v[q] = noise(seed * 131 + q); }\n"
          "}\n"
          "proc main() {\n";
    for (int k = 0; k < num_arrays; ++k)
      src += "  real " + arr(k) + "[" + std::to_string(kArraySize) + "];\n";
    src += "  int flag0; flag0 = inoise(1, 2);\n";
    src += "  int flag1; flag1 = inoise(2, 3) - 1;\n";
    for (int k = 0; k < num_scalars; ++k) {
      src += "  real sc" + std::to_string(k) + "; sc" + std::to_string(k) +
             " = noise(" + std::to_string(k + 10) + ");\n";
      src += "  real acc" + std::to_string(k) + "; acc" + std::to_string(k) +
             " = 0.0;\n";
    }
    // Optionally initialize some arrays through the helper procedure.
    for (int k = 0; k < num_arrays; ++k) {
      if (rng.chance(50)) {
        src += "  gfill(" + arr(k) + ", " + std::to_string(kArraySize) +
               ", " + std::to_string(k) + ");\n";
      }
    }
    int nests = rng.range(2, 4);
    int stmts = 0;
    for (int nest = 0; nest < nests; ++nest) {
      std::string iv = "i" + std::to_string(nest);
      src += "  for " + iv + " = 2 to " + std::to_string(kArraySize - 3);
      if (rng.chance(20)) src += " step 2";
      src += " {\n";
      if (rng.chance(40)) {
        // Nested inner loop over a second index.
        std::string jv = "j" + std::to_string(nest);
        src += "    for " + jv + " = 2 to " +
               std::to_string(kArraySize - 3) + " {\n";
        emitLoopBody(jv, 1, stmts);
        src += "    }\n";
      }
      emitLoopBody(iv, 0, stmts);
      src += "  }\n";
    }
    // Checksum everything.
    src += "  real chk; chk = 0.0;\n";
    for (int k = 0; k < num_arrays; ++k)
      src += "  for z" + std::to_string(k) + " = 0 to " +
             std::to_string(kArraySize - 1) + " { chk = chk + " + arr(k) +
             "[z" + std::to_string(k) + "]; }\n";
    for (int k = 0; k < num_scalars; ++k)
      src += "  chk = chk + acc" + std::to_string(k) + ";\n";
    src += "  sink(chk);\n}\n";
    return src;
  }
};

class RandomProgram : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgram, AnalysisIsSoundUnderExecution) {
  Generator gen(static_cast<uint64_t>(GetParam()) + 1);
  std::string source = gen.generate();
  SCOPED_TRACE(source);

  DiagEngine diags;
  auto cp = compileSource(source, diags);
  ASSERT_TRUE(cp.has_value()) << diags.dump();

  InterpStats seq = execute(*cp->program, {});

  InterpOptions popt;
  popt.plans = &cp->pred;
  popt.num_threads = 3;
  InterpStats par = execute(*cp->program, popt);
  double tol = 1e-9 * (std::abs(seq.checksum) + 1.0);
  EXPECT_NEAR(par.checksum, seq.checksum, tol)
      << "predicated parallel execution diverged";

  InterpOptions bopt;
  bopt.plans = &cp->base;
  bopt.num_threads = 3;
  InterpStats bpar = execute(*cp->program, bopt);
  EXPECT_NEAR(bpar.checksum, seq.checksum, tol)
      << "baseline parallel execution diverged";
}

TEST_P(RandomProgram, CompileTimeParallelNeverRefutedByElpd) {
  Generator gen(static_cast<uint64_t>(GetParam()) + 1);
  std::string source = gen.generate();
  SCOPED_TRACE(source);

  DiagEngine diags;
  auto cp = compileSource(source, diags);
  ASSERT_TRUE(cp.has_value()) << diags.dump();

  // Instrument every loop the predicated analysis proves parallel at
  // compile time; ELPD must not observe cross-iteration flow in any.
  RaceOracle collector;
  for (const LoopNode* node : cp->loops.allLoops()) {
    const LoopPlan* pp = cp->pred.planFor(node->loop);
    if (pp && pp->status == LoopStatus::Parallel)
      collector.instrument(node->loop);
  }
  InterpOptions opt;
  opt.race = &collector;
  execute(*cp->program, opt);
  for (const LoopNode* node : cp->loops.allLoops()) {
    if (!collector.isInstrumented(node->loop)) continue;
    auto v = collector.verdict(node->loop);
    if (!v.executed) continue;
    const LoopPlan* pp = cp->pred.planFor(node->loop);
    bool privatizes = !pp->privatized.empty();
    if (privatizes) {
      EXPECT_FALSE(v.flow)
          << node->loop->loop_id
          << ": analysis privatized a loop with observed value flow";
    } else {
      EXPECT_TRUE(v.independent())
          << node->loop->loop_id
          << ": analysis claimed independence but ELPD saw a conflict";
    }
  }
}

TEST_P(RandomProgram, BudgetStarvedAnalysisDegradesSoundly) {
  Generator gen(static_cast<uint64_t>(GetParam()) + 1);
  std::string source = gen.generate();
  SCOPED_TRACE(source);

  DiagEngine diags;
  auto program = parseProgram(source, diags);
  ASSERT_TRUE(program) << diags.dump();
  ASSERT_TRUE(analyze(*program, diags)) << diags.dump();

  AnalysisResult ref =
      analyzeProgram(*program, AnalysisConfig::predicated());

  // Starve the per-loop Fourier–Motzkin slice: most generated loops blow
  // it, and the contract is no crash + an identical-prefix/sequential-
  // suffix plan set (degradation only ever removes parallelism).
  AnalysisConfig starved = AnalysisConfig::predicated();
  starved.budget.max_loop_fm_steps = 40;
  AnalysisResult res = analyzeProgram(*program, starved);

  EXPECT_EQ(res.plans.size(), ref.plans.size());
  for (const auto& [loop, plan] : res.plans) {
    const LoopPlan* rp = ref.planFor(loop);
    ASSERT_NE(rp, nullptr);
    if (plan.degraded) {
      EXPECT_EQ(plan.status, LoopStatus::Sequential)
          << "degraded plan must stay sequential";
    } else {
      EXPECT_EQ(plan.status, rp->status)
          << "non-degraded plan diverged from the unstarved run";
    }
  }

  // Execution under the starved plans still matches the reference.
  InterpStats seq = execute(*program, {});
  InterpOptions popt;
  popt.plans = &res;
  popt.num_threads = 3;
  InterpStats par = execute(*program, popt);
  double tol = 1e-9 * (std::abs(seq.checksum) + 1.0);
  EXPECT_NEAR(par.checksum, seq.checksum, tol)
      << "parallel execution under budget-starved plans diverged";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgram, ::testing::Range(0, 80));

}  // namespace
}  // namespace padfa
