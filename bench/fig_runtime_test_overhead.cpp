// Experiment E5 — run-time test overhead: predicated tests vs the
// inspector (ELPD) alternative.
//
// The paper's key efficiency claim: a predicated run-time test evaluates
// a handful of scalar predicates at loop entry — O(test atoms) — while an
// inspector/executor instruments every array access — O(array size ×
// accesses). This google-benchmark binary measures both on the same
// two-version loop at growing sizes.
#include <benchmark/benchmark.h>

#include "bench_util.h"

using namespace padfa;
using namespace padfa::bench;

namespace {

std::string kernelSource(int n) {
  std::string N = std::to_string(n);
  return R"(
proc main() {
  int n; n = )" + N + R"(;
  int d; d = inoise(17, 1) + n;
  real x[)" + N + R"( * 3];
  for j = 0 to 3 * n - 1 { x[j] = noise(j); }
  for i = n to 2 * n - 1 {
    x[i] = x[i - d] * 0.5 + 1.0;
  }
  real chk; chk = 0.0;
  for i = 0 to n - 1 { chk = chk + x[i]; }
  sink(chk);
}
)";
}

CompiledProgram compileKernel(int n) {
  DiagEngine diags;
  auto cp = compileSource(kernelSource(n), diags);
  if (!cp) {
    std::fprintf(stderr, "%s\n", diags.dump().c_str());
    std::exit(1);
  }
  return std::move(*cp);
}

// Cost of executing with the derived predicated run-time test (the test
// is evaluated once per loop entry; the loop runs parallel on 2 threads).
void BM_PredicatedRuntimeTest(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  CompiledProgram cp = compileKernel(n);
  InterpOptions opt;
  opt.plans = &cp.pred;
  opt.num_threads = 2;
  uint64_t atoms = 0;
  for (auto _ : state) {
    InterpStats s = execute(*cp.program, opt);
    atoms = s.runtime_test_atoms;
    benchmark::DoNotOptimize(s.checksum);
  }
  state.counters["test_atoms"] = static_cast<double>(atoms);
}

// Cost of deciding the same question with the ELPD inspector: a full
// instrumented sequential execution.
void BM_ElpdInspection(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  CompiledProgram cp = compileKernel(n);
  const ForStmt* target = nullptr;
  for (const LoopNode* node : cp.loops.allLoops())
    if (isCandidate(cp, node->loop)) target = node->loop;
  uint64_t accesses = 0;
  for (auto _ : state) {
    RaceOracle elpd;
    if (target) elpd.instrument(target);
    InterpOptions opt;
    opt.race = &elpd;
    InterpStats s = execute(*cp.program, opt);
    accesses = elpd.totalAccesses();
    benchmark::DoNotOptimize(s.checksum);
  }
  state.counters["instrumented_accesses"] = static_cast<double>(accesses);
}

// Plain sequential run as the common baseline.
void BM_SequentialBaseline(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  CompiledProgram cp = compileKernel(n);
  for (auto _ : state) {
    InterpStats s = execute(*cp.program, {});
    benchmark::DoNotOptimize(s.checksum);
  }
}

}  // namespace

BENCHMARK(BM_SequentialBaseline)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_PredicatedRuntimeTest)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_ElpdInspection)->Arg(256)->Arg(1024)->Arg(4096);

BENCHMARK_MAIN();
