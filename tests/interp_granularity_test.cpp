// Inline vs pooled execution of planned loops: the run-time granularity
// test may run a region inline on the dispatching thread (always at one
// thread, and for loops whose measured cost per iteration times trip is
// below the grain), and that choice must never change a computed bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "corpus/corpus.h"
#include "driver/padfa.h"
#include "interp/interp.h"

namespace padfa {
namespace {

// A tiny reduction loop (line 12, trip 3) entered 120 times from a
// sequential recurrence, then one coarse loop (line 15) that privatizes
// `work` with copy-in and leaves `last` for scalar copy-out. $SINK$ picks
// the final value the run reports, so each one is compared on its own.
constexpr const char* kProgram = R"(
proc main() {
  real a[256];
  real work[16];
  real out[256];
  real x; x = 0.5;
  real last; last = 0.0;
  for q = 0 to 15 { work[q] = noise(q) * 0.25; }
  for q = 0 to 255 { a[q] = noise(q + 1000); }
  for t = 0 to 119 {
    real s; s = 0.0;
    for j = 0 to 2 { s = s + a[t + j] * x + noise(t * 3 + j); }
    x = s * 0.125 + x * 0.5;
  }
  for i = 0 to 255 {
    for k = 0 to 7 { work[k] = noise(i * 8 + k) + x; }
    real e; e = 0.0;
    for k = 0 to 15 { e = e + work[k] * work[k]; }
    out[i] = e;
    last = e * 0.5 + i;
  }
  real chk; chk = last * 0.001;
  for i = 0 to 255 { chk = chk + out[i]; }
  sink($SINK$);
}
)";

CompiledProgram compileWithSink(const std::string& sink) {
  std::string src = kProgram;
  src.replace(src.find("$SINK$"), 6, sink);
  DiagEngine diags;
  auto cp = compileSource(src, diags);
  EXPECT_TRUE(cp.has_value()) << diags.dump();
  return std::move(*cp);
}

const LoopPlan* planAtLine(const CompiledProgram& cp, uint32_t line) {
  for (const auto& [loop, plan] : cp.pred.plans)
    if (loop->loc.line == line) return &plan;
  ADD_FAILURE() << "no plan for the loop at line " << line;
  return nullptr;
}

uint64_t bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Runs with the automatic chunk.
InterpStats run(const CompiledProgram& cp, const AnalysisResult* plans,
                unsigned threads) {
  InterpOptions opt;
  opt.plans = plans;
  opt.num_threads = threads;
  return execute(*cp.program, opt);
}

InterpStats runWith(const CompiledProgram& cp, unsigned threads,
                    int64_t chunk) {
  InterpOptions opt;
  opt.plans = &cp.pred;
  opt.num_threads = threads;
  opt.chunk = chunk;
  return execute(*cp.program, opt);
}

TEST(Granularity, ProgramHasTheIntendedPlans) {
  CompiledProgram cp = compileWithSink("chk");
  const LoopPlan* tiny = planAtLine(cp, 12);
  const LoopPlan* coarse = planAtLine(cp, 15);
  ASSERT_TRUE(tiny && coarse);
  EXPECT_EQ(tiny->status, LoopStatus::Parallel);
  EXPECT_EQ(tiny->reductions.size(), 1u);
  EXPECT_EQ(coarse->status, LoopStatus::Parallel);
  ASSERT_EQ(coarse->privatized.size(), 1u);
  EXPECT_TRUE(coarse->privatized[0].copy_in);
  ASSERT_EQ(coarse->copy_out_scalars.size(), 1u);
  EXPECT_EQ(cp.interner().str(coarse->copy_out_scalars[0]->name), "last");
}

TEST(Granularity, BitIdenticalAcrossThreadsAndPaths) {
  // For a fixed chunk the block decomposition fixes every value, whether
  // a region runs pooled or inline: checksums must agree bit for bit
  // across thread counts. Across chunks only reduction grouping changes,
  // so those agree with sequential within rounding.
  for (const char* sink : {"chk", "last", "x", "work[3] + work[12]"}) {
    CompiledProgram cp = compileWithSink(sink);
    const double seq = run(cp, nullptr, 1).checksum;
    for (int64_t chunk : {int64_t{0}, int64_t{1}, int64_t{7}}) {
      const double want = runWith(cp, 1, chunk).checksum;
      EXPECT_NEAR(want, seq, 1e-9 * (std::fabs(seq) + 1)) << sink;
      for (unsigned threads : {1u, 2u, 8u}) {
        InterpStats st = runWith(cp, threads, chunk);
        EXPECT_EQ(bits(st.checksum), bits(want))
            << "sink(" << sink << ") T=" << threads << " chunk=" << chunk;
      }
    }
  }
}

TEST(Granularity, TinyLoopRunsInlineCoarseLoopIsPooled) {
  CompiledProgram cp = compileWithSink("chk");
  // At 8 threads the tiny loop's first entry goes to the pool, later
  // entries measure below the grain and run inline; the coarse loop is
  // entered once, so it is never serialized.
  InterpStats t8 = run(cp, &cp.pred, 8);
  EXPECT_GE(t8.parallel_loops_entered, 120u);
  EXPECT_GT(t8.parallel_loops_inlined, 0u);
  EXPECT_LT(t8.parallel_loops_inlined, t8.parallel_loops_entered);
  // At one thread every region runs inline, and each one still counts
  // as an entered parallel loop.
  InterpStats t1 = run(cp, &cp.pred, 1);
  EXPECT_EQ(t1.parallel_loops_entered, t8.parallel_loops_entered);
  EXPECT_EQ(t1.parallel_loops_inlined, t1.parallel_loops_entered);
  EXPECT_EQ(bits(t1.checksum), bits(t8.checksum));
}

TEST(Granularity, RegionTimeIsSplitIntoPrologueRegionEpilogue) {
  CompiledProgram cp = compileWithSink("chk");
  for (unsigned threads : {1u, 4u}) {
    InterpStats st = run(cp, &cp.pred, threads);
    EXPECT_GT(st.parallel_prologue_seconds, 0.0) << threads;
    EXPECT_GT(st.parallel_region_seconds, 0.0) << threads;
    EXPECT_GE(st.parallel_epilogue_seconds, 0.0) << threads;
    EXPECT_LE(st.parallel_prologue_seconds + st.parallel_region_seconds +
                  st.parallel_epilogue_seconds,
              st.total_seconds)
        << threads;
  }
}

TEST(Granularity, CorpusOneThreadMatchesFourThreads) {
  // Every corpus program, both plan sets: one thread (all regions inline,
  // Doacross loops without the ring) reproduces four threads bit for bit.
  for (const CorpusEntry& e : corpus()) {
    DiagEngine diags;
    auto cp = compileSource(instantiate(e), diags);
    ASSERT_TRUE(cp.has_value()) << e.name << "\n" << diags.dump();
    for (const AnalysisResult* plans : {&cp->base, &cp->pred}) {
      const char* which = plans == &cp->base ? "base" : "pred";
      InterpStats t1 = run(*cp, plans, 1);
      InterpStats t4 = run(*cp, plans, 4);
      EXPECT_EQ(bits(t1.checksum), bits(t4.checksum)) << e.name << " " << which;
      EXPECT_EQ(t1.parallel_loops_entered, t4.parallel_loops_entered)
          << e.name << " " << which;
      EXPECT_EQ(t1.parallel_loops_inlined, t1.parallel_loops_entered)
          << e.name << " " << which;
      EXPECT_EQ(t1.doacross_loops_entered, t4.doacross_loops_entered)
          << e.name << " " << which;
    }
  }
}

}  // namespace
}  // namespace padfa
