// MF interpreter: the execution substrate standing in for SUIF's compiled
// parallel code.
//
// Modes:
//  * sequential         — reference semantics;
//  * parallel           — consumes an AnalysisResult: loops planned
//                         Parallel run across a thread pool (one level of
//                         parallelism, like SUIF), or inline on the
//                         calling thread at one thread or when their
//                         measured cost is below the run-time
//                         granularity grain; RuntimeTest loops
//                         evaluate their predicate at entry and dispatch
//                         to the parallel or sequential version
//                         (two-version loops); privatization, reductions
//                         and last-value copy-out are honored;
//  * instrumented       — sequential + shadow-memory marking by one
//                         RaceOracle: its plan-free loops are ELPD's
//                         candidates, its planned loops the race check's.
// Per-loop wall-clock profiling (coverage/granularity for Table 3) can be
// enabled in any mode.
#pragma once

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dataflow/loop_plan.h"
#include "lang/ast.h"
#include "runtime/thread_pool.h"

namespace padfa {

class RaceOracle;

/// Runtime storage for one array. The element buffer is itself shared so
/// that a reshaped formal parameter (different dims, same data) is just
/// another ArrayStorage viewing the same buffer — exactly Fortran's
/// sequence association, which the analysis's Reshape operation models.
struct ArrayStorage {
  Type elem = Type::Real;
  std::vector<int64_t> dims;
  std::shared_ptr<std::vector<double>> reals;
  std::shared_ptr<std::vector<int64_t>> ints;

  size_t size() const {
    size_t n = 1;
    for (int64_t d : dims) n *= static_cast<size_t>(d);
    return n;
  }
  /// Stable identity of the underlying buffer (shared across views).
  const void* bufferId() const {
    return elem == Type::Real ? static_cast<const void*>(reals.get())
                              : static_cast<const void*>(ints.get());
  }
};

struct RuntimeError : std::runtime_error {
  /// Location of the faulting statement/expression (innermost frame);
  /// invalid (line 0) when the fault has no program location (e.g.
  /// missing 'main'). Preserved through call-stack wrapping so reporters
  /// can show the offending source line, not just the call stack.
  SourceLoc loc;

  RuntimeError(SourceLoc l, const std::string& msg)
      : std::runtime_error("runtime error at " + l.str() + ": " + msg),
        loc(l) {}

  /// Wrap an error propagating out of a procedure call: appends one
  /// "in call to 'proc' at <site>" frame, so the final message carries
  /// the full procedure call stack innermost-first. The innermost
  /// location is kept.
  RuntimeError(const RuntimeError& inner, std::string_view proc,
               SourceLoc call_site)
      : std::runtime_error(std::string(inner.what()) + "\n  in call to '" +
                           std::string(proc) + "' at " + call_site.str()),
        loc(inner.loc) {}
};

struct LoopProfile {
  uint64_t invocations = 0;
  double seconds = 0;
  uint64_t iterations = 0;
  /// Simulated P-processor cost of this loop's invocations: wall time
  /// for sequential ones, the modeled parallel/pipelined region cost for
  /// Parallel/Doacross ones (same model as InterpStats::simulated_seconds).
  double simulated_seconds = 0;
};

struct InterpStats {
  double checksum = 0;            // accumulated by sink()
  uint64_t sink_count = 0;
  /// DOALL plan dispatches, whether pooled or inline.
  uint64_t parallel_loops_entered = 0;
  /// The subset of parallel_loops_entered that ran inline on the
  /// dispatching thread: every entry at 1 thread, and entries whose
  /// expected cost (cost per iteration measured on the loop's earlier
  /// entries × trip) fell below the granularity grain.
  uint64_t parallel_loops_inlined = 0;
  /// Wall time of all parallel (DOALL and Doacross) regions, split into
  /// the serial prologue (worker frames, private buffers), the region
  /// itself, and the serial epilogue (reduction combine, copy-out).
  double parallel_prologue_seconds = 0;
  double parallel_region_seconds = 0;
  double parallel_epilogue_seconds = 0;
  uint64_t runtime_tests_evaluated = 0;
  uint64_t runtime_tests_passed = 0;
  /// Tests whose evaluation itself faulted (e.g. division by zero in an
  /// atom): the two-version dispatch traps the fault and takes the
  /// sequential version, which reproduces the fault iff the original
  /// program would have.
  uint64_t runtime_tests_trapped = 0;
  uint64_t runtime_test_atoms = 0;  // total atoms evaluated (test cost)
  /// Two-version dispatches skipped entirely because the value-range
  /// analysis proved the derived test at compile time (the plan arrived
  /// as Parallel with VraAction::PromotedParallel): the per-entry test
  /// evaluation cost those loops would have paid is gone.
  uint64_t runtime_tests_pruned = 0;
  /// Doacross (pipelined) loop regions entered, and post/wait events
  /// actually executed inside them.
  uint64_t doacross_loops_entered = 0;
  uint64_t doacross_waits = 0;
  std::map<const ForStmt*, LoopProfile> profiles;
  double total_seconds = 0;

  /// Simulated P-processor execution time: wall time with each parallel
  /// region's cost replaced by the replay of its measured thread-CPU
  /// block costs (a Doacross region: iteration sync traces) on P
  /// dedicated workers, plus the serial privatization/copy overhead. On a machine with >= P free
  /// cores this converges to wall time; on fewer cores it models the
  /// paper's multiprocessor (see DESIGN.md).
  double simulated_seconds = 0;
};

struct InterpOptions {
  /// Null: fully sequential. Otherwise loops run parallel per plan.
  const AnalysisResult* plans = nullptr;
  unsigned num_threads = 1;
  /// Non-null: shadow-memory instrumentation (forces sequential
  /// execution). The engine decides which loops to shadow: ELPD's
  /// plan-free candidates on every invocation, planned RuntimeTest loops
  /// only when the test passes.
  RaceOracle* race = nullptr;
  /// Record per-loop timing.
  bool profile = false;
  /// Iterations per scheduler block. 0 selects the automatic rule:
  /// trip/64 clamped to [1, 4096] for DOALL loops, 1 for Doacross loops
  /// (pipelining wants fine grain). The block decomposition — and
  /// therefore every computed value, including floating-point reduction
  /// grouping — depends only on `chunk`, never on the thread count or on
  /// inline or pooled execution.
  int64_t chunk = 0;
  /// Doacross sliding-window bound (min 2): iteration i may not start
  /// before iteration i - window completed.
  int64_t doacross_window = 64;
};

/// Execute `main` of an analyzed program. Throws RuntimeError on runtime
/// faults (out-of-bounds access, division by zero, missing main).
InterpStats execute(const Program& program, const InterpOptions& options);

/// Deterministic pseudo-random helpers backing the noise()/inoise()
/// intrinsics (exposed for tests).
double noiseValue(int64_t x);
int64_t inoiseValue(int64_t x, int64_t m);

}  // namespace padfa
