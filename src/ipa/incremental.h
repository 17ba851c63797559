// Interprocedural change-impact analysis: incremental re-analysis for
// the mfcd daemon (and anything else driving compileSource repeatedly
// over evolving sources).
//
// The pipeline per request is compileSource()'s three stages
// (driver/padfa.h) with the store around the analysis pair:
//
//   frontend       parse + sema + loop tree
//   probe          call graph (ipa/callgraph.h) -> per-procedure content
//                  fingerprints (ipa/fingerprint.h) -> per (procedure,
//                  analysis kind): look up the *deep* fingerprint in the
//                  persistent store. Hit: the analysis pair loads the
//                  procedure's finalized summary and plans
//                  (store/deep_codec.h) instead of analyzing it; miss:
//                  the procedure is dirty — re-analyze it.
//   analysis pair  base || predicated, then the degradation ladder
//   persist        fresh, pre-refinement procedure records -> store
//   refinement     Doacross upgrade + VRA promotion
//
// Under a governed budget or with caches off, probe and persist are
// skipped and the stages run as in compileSource().
//
// Because the deep fingerprint hashes the procedure's canonical text
// plus its entire callee closure, a store miss is exactly the
// change-impact set: edited procedures plus all their bottom-up
// ancestors (whole SCCs). Whitespace, comments and declaration
// reshuffles leave canonical text unchanged, so they invalidate
// nothing. Replay is never load-bearing for correctness: any decode
// failure silently re-analyzes, and the PADFA_IPA_CHECK tripwire
// (below) can force a byte-level audit against a cold run.
//
// Cold-equivalence contract: the CompiledProgram returned here yields a
// planSignature() byte-identical to compileSource() on the same bytes
// whenever replay happened (tested per-corpus-program, and enforced at
// runtime when PADFA_IPA_CHECK is set: any divergence prints both
// signatures and aborts the process).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "driver/padfa.h"
#include "store/summary_store.h"

namespace padfa::ipa {

/// What one incremental compile did, for telemetry / status / tests.
struct IncrementalInfo {
  size_t procs_total = 0;
  /// Procedures replayed from the store under BOTH analysis kinds.
  size_t procs_replayed = 0;
  /// Procedures analyzed from scratch under at least one kind.
  size_t procs_analyzed = 0;
  /// Dirty procedures (store miss / replay failure), program order.
  std::vector<std::string> dirty;
  /// Fully replayed procedures, program order.
  std::vector<std::string> replayed;
  /// Deep-fingerprint store probes: one per (procedure, kind).
  uint64_t fingerprint_hits = 0;
  uint64_t fingerprint_misses = 0;
  /// False when the run skipped the probe and the persist (governed
  /// budget or caches disabled): every procedure was analyzed.
  bool incremental = false;
};

/// compileSource() with change-impact replay against `store`.
///
/// Runs compileSource(source, diags, limits)'s stages, so outputs match
/// it exactly (same CompiledProgram shape, same degradation ladder,
/// byte-identical plan signatures); differs only in how much analysis
/// actually runs. Fresh (non-degraded, ungoverned) procedure records are
/// persisted back into `store` in memory — the caller decides when to
/// save().
std::optional<CompiledProgram> compileSourceIncremental(
    const std::string& source, DiagEngine& diags, const BudgetLimits& limits,
    store::SummaryStore& store, IncrementalInfo* info = nullptr);

}  // namespace padfa::ipa
