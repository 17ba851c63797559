// Shared helpers for the evaluation harness (one binary per paper
// table/figure; see DESIGN.md §5 for the experiment index).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "driver/padfa.h"
#include "support/perf_stats.h"

namespace padfa::bench {

inline CompiledProgram compileOrDie(const CorpusEntry& e, int scale = 1) {
  DiagEngine diags;
  auto cp = compileSource(instantiate(e, scale), diags);
  if (!cp) {
    std::fprintf(stderr, "corpus program '%s' failed to compile:\n%s\n",
                 e.name.c_str(), diags.dump().c_str());
    std::exit(1);
  }
  return std::move(*cp);
}

/// Candidate loops per the paper's Table 1: left sequential by the base
/// system, not I/O, and not nested inside a base-parallelized loop.
inline bool isCandidate(const CompiledProgram& cp, const ForStmt* loop) {
  const LoopPlan* bp = cp.base.planFor(loop);
  if (!bp) return false;
  if (bp->status != LoopStatus::Sequential) return false;
  return !nestedInsideParallelized(cp, loop, cp.base);
}

/// Run the program sequentially with ELPD instrumentation on every
/// candidate loop; returns the collector for verdict queries.
inline ElpdCollector runElpd(const CompiledProgram& cp) {
  ElpdCollector collector;
  for (const LoopNode* node : cp.loops.allLoops())
    if (isCandidate(cp, node->loop)) collector.instrument(node->loop);
  InterpOptions opt;
  opt.elpd = &collector;
  execute(*cp.program, opt);
  return collector;
}

/// Extract a `--json <path>` flag from argv, compacting argv so
/// benchmark::Initialize never sees the (unrecognized) flag. Returns the
/// path, or "" when the flag is absent. Harness binaries use this to emit
/// machine-readable results (wall times, cache hit rates, thread count)
/// next to their human-readable tables.
inline std::string extractJsonFlag(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < *argc) {
      path = argv[++i];
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  argv[out] = nullptr;
  return path;
}

/// Loop category label for Table 3, derived from plan attribution flags.
inline std::string loopCategory(const LoopPlan& plan) {
  bool rt = plan.status == LoopStatus::RuntimeTest;
  if (plan.used_reshape) return rt ? "RESHAPE-RT" : "RESHAPE";
  if (rt) {
    if (plan.used_predicates) return "CF-RT";
    if (plan.used_extraction) return "EXT-RT";
    return "RT";
  }
  bool copy_in = false;
  for (const auto& p : plan.privatized) copy_in |= p.copy_in;
  if (plan.priv_used && copy_in) return "PRIV-CT";
  if (plan.used_embedding) return "CF-CT/EMB";
  if (plan.used_predicates) return "CF-CT";
  return "CT";
}

}  // namespace padfa::bench
