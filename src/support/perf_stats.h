// Process-wide performance counters.
//
// The engine's one result cache, the Presburger feasibility cache,
// reports its hit/miss/insert traffic through `PerfStats::feasibility`
// so benches and tests can print and assert cache effectiveness; the
// incremental path and the value-range analysis keep their own counter
// blocks. Counters are atomic (relaxed): they are telemetry, never
// control flow, so cross-thread ordering is irrelevant — only totals
// matter.
//
// Cache enablement is a process-wide switch: the PADFA_NO_CACHE
// environment variable (any non-empty value) disables the feasibility
// cache, the daemon's warm path and incremental replay, and
// setCachesEnabled() overrides the environment programmatically (used by
// the cache-coherence test to compare cached vs uncached plans in one
// process). The cache is additionally bypassed whenever a *governed*
// AnalysisBudget is installed (finite limits or a fault injector):
// budget charging is part of the observable degradation contract, and a
// cache hit that skips charge points would let a starved analysis dodge
// the exhaustion it is supposed to hit.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "support/json.h"

namespace padfa {

struct CacheStats {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> inserts{0};

  void hit() { hits.fetch_add(1, std::memory_order_relaxed); }
  void miss() { misses.fetch_add(1, std::memory_order_relaxed); }
  void insert() { inserts.fetch_add(1, std::memory_order_relaxed); }

  uint64_t lookups() const {
    return hits.load(std::memory_order_relaxed) +
           misses.load(std::memory_order_relaxed);
  }
  double hitRate() const {
    uint64_t n = lookups();
    return n ? static_cast<double>(hits.load(std::memory_order_relaxed)) /
                   static_cast<double>(n)
             : 0.0;
  }
  void reset() {
    hits.store(0, std::memory_order_relaxed);
    misses.store(0, std::memory_order_relaxed);
    inserts.store(0, std::memory_order_relaxed);
  }
};

/// Counters for the incremental (change-impact) compile path
/// (ipa/incremental.h). Totals accumulate across runs; last_dirty_size
/// is overwritten per run so the daemon's `status` response can report
/// how much of the program the most recent edit actually invalidated.
struct IncrementalCounters {
  std::atomic<uint64_t> runs{0};            ///< incremental compiles
  std::atomic<uint64_t> procs_analyzed{0};  ///< dirty procedures re-analyzed
  std::atomic<uint64_t> procs_replayed{0};  ///< procedures replayed from store
  std::atomic<uint64_t> fingerprint_hits{0};    ///< deep-fp probes, hit
  std::atomic<uint64_t> fingerprint_misses{0};  ///< deep-fp probes, miss
  std::atomic<uint64_t> last_dirty_size{0};     ///< dirty set of latest run

  void reset() {
    runs.store(0, std::memory_order_relaxed);
    procs_analyzed.store(0, std::memory_order_relaxed);
    procs_replayed.store(0, std::memory_order_relaxed);
    fingerprint_hits.store(0, std::memory_order_relaxed);
    fingerprint_misses.store(0, std::memory_order_relaxed);
    last_dirty_size.store(0, std::memory_order_relaxed);
  }
};

/// Counters for the value-range analysis (vra/vra.h) and its clients.
/// `proofs` counts provePred() queries, `proofs_discharged` the ones
/// resolved to a definite True/False; promotions/demotions are the plan
/// rewrites committed by the static runtime-test discharge pass and the
/// Doacross profitability guard.
struct VraCounters {
  std::atomic<uint64_t> analyses{0};   ///< RangeAnalysis fixpoints run
  std::atomic<uint64_t> widenings{0};  ///< loop-head widening applications
  std::atomic<uint64_t> proofs{0};     ///< provePred() queries
  std::atomic<uint64_t> proofs_discharged{0};  ///< ... resolved True/False
  std::atomic<uint64_t> promotions{0};   ///< RuntimeTest -> Parallel
  std::atomic<uint64_t> demotions{0};    ///< RuntimeTest -> Sequential
  std::atomic<uint64_t> doacross_demotions{0};  ///< Doacross cost guard

  void reset() {
    analyses.store(0, std::memory_order_relaxed);
    widenings.store(0, std::memory_order_relaxed);
    proofs.store(0, std::memory_order_relaxed);
    proofs_discharged.store(0, std::memory_order_relaxed);
    promotions.store(0, std::memory_order_relaxed);
    demotions.store(0, std::memory_order_relaxed);
    doacross_demotions.store(0, std::memory_order_relaxed);
  }
};

/// The process-wide counter set.
struct PerfStats {
  CacheStats feasibility;  ///< pb::System::feasible() cache
  // Never incremented; kept only because perfbench/ still reads them.
  CacheStats implies, simplify, summary;
  IncrementalCounters incremental;  ///< change-impact replay path
  VraCounters vra;                  ///< value-range analysis + clients

  static PerfStats& instance();

  void resetAll() {
    feasibility.reset();
    incremental.reset();
    vra.reset();
  }

  /// One-line-per-counter-block human-readable dump for bench output.
  std::string report() const;
};

/// {"hits":h,"misses":m,"inserts":i,"hit_rate":r} for one counter set —
/// the shape the benches' BENCH_*.json files and the mfcd `status`
/// response share.
JsonValue cacheStatsToJson(const CacheStats& s);

/// {"feasibility": cacheStatsToJson(...)} — the mfcd `status` response's
/// "cache" object.
JsonValue perfStatsToJson(const PerfStats& stats);

/// {"runs":..,"procs_analyzed":..,"procs_replayed":..,
///  "fingerprint_hits":..,"fingerprint_misses":..,"last_dirty_size":..}
/// — the mfcd `status` response's "incremental" object.
JsonValue incrementalCountersToJson(const IncrementalCounters& c);

/// {"analyses":..,"widenings":..,"proofs":..,"proofs_discharged":..,
///  "promotions":..,"demotions":..,"doacross_demotions":..} — consumed
/// by bench/fig_vra.cpp.
JsonValue vraCountersToJson(const VraCounters& c);

/// Whether the caches are active. Defaults to the environment
/// (PADFA_NO_CACHE unset/empty => enabled); a setCachesEnabled() call
/// takes precedence over the environment for the rest of the process.
bool cachesEnabled();
void setCachesEnabled(bool enabled);
/// Drop any setCachesEnabled() override, reverting to the environment.
void clearCachesEnabledOverride();

}  // namespace padfa
