// ELPD inspection demo: instrument the candidate loops of a corpus
// program, run it sequentially, and report which loops the run-time test
// finds inherently parallel — the measurement behind the paper's
// "remaining parallel loops" denominator.
#include <cstdio>
#include <cstring>

#include "corpus/corpus.h"
#include "driver/padfa.h"

using namespace padfa;

int main(int argc, char** argv) {
  const char* name = argc > 1 ? argv[1] : "applu";
  const CorpusEntry* entry = corpusEntry(name);
  if (!entry) {
    std::fprintf(stderr, "unknown corpus program '%s'\n", name);
    std::fprintf(stderr, "available:");
    for (const auto& e : corpus()) std::fprintf(stderr, " %s", e.name.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }
  DiagEngine diags;
  auto cp = compileSource(instantiate(*entry), diags);
  if (!cp) {
    std::fprintf(stderr, "%s", diags.dump().c_str());
    return 1;
  }

  int candidates = 0;
  for (const LoopNode* node : cp->loops.allLoops())
    if (isCandidate(*cp, node->loop)) ++candidates;
  std::printf("program '%s': %d candidate loop(s) left sequential by the "
              "base system\n",
              name, candidates);

  RaceOracle elpd = runElpd(*cp);
  uint64_t accesses = 0;
  for (const LoopNode* node : cp->loops.allLoops()) {
    if (!elpd.isInstrumented(node->loop)) continue;
    RaceOracle::LoopVerdict v = elpd.verdict(node->loop);
    accesses += v.accesses;
    const char* verdict = !v.executed        ? "did not execute"
                          : v.independent()  ? "INDEPENDENT"
                          : v.privatizable() ? "PRIVATIZABLE"
                                             : "not parallel (flow)";
    const LoopPlan* pp = cp->pred.planFor(node->loop);
    const char* pred = pp && pp->status == LoopStatus::Parallel
                           ? "recovered (compile time)"
                       : pp && pp->status == LoopStatus::RuntimeTest
                           ? "recovered (run-time test)"
                           : "not recovered";
    std::printf("  %-14s ELPD: %-22s accesses=%-8llu predicated: %s\n",
                node->loop->loop_id.c_str(), verdict,
                static_cast<unsigned long long>(v.accesses), pred);
  }
  std::printf("total instrumented accesses: %llu (the inspector overhead "
              "the paper's low-cost tests avoid)\n",
              static_cast<unsigned long long>(accesses));
  return 0;
}
