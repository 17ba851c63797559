#include "support/perf_stats.h"

#include <cstdio>
#include <cstdlib>

namespace padfa {

namespace {

// -1 = no override (follow the environment), 0 = disabled, 1 = enabled.
std::atomic<int> g_caches_override{-1};

bool envCachesEnabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("PADFA_NO_CACHE");
    return !(v && *v);
  }();
  return enabled;
}

void appendLine(std::string& out, const char* name, const CacheStats& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "  %-12s hits=%llu misses=%llu inserts=%llu hit-rate=%.1f%%\n",
                name,
                static_cast<unsigned long long>(
                    s.hits.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(
                    s.misses.load(std::memory_order_relaxed)),
                static_cast<unsigned long long>(
                    s.inserts.load(std::memory_order_relaxed)),
                100.0 * s.hitRate());
  out += buf;
}

}  // namespace

PerfStats& PerfStats::instance() {
  static PerfStats stats;
  return stats;
}

std::string PerfStats::report() const {
  std::string out = "cache statistics:\n";
  appendLine(out, "feasibility", feasibility);
  uint64_t runs = incremental.runs.load(std::memory_order_relaxed);
  if (runs > 0) {
    char buf[200];
    std::snprintf(
        buf, sizeof(buf),
        "  %-12s runs=%llu analyzed=%llu replayed=%llu fp-hits=%llu "
        "fp-misses=%llu last-dirty=%llu\n",
        "incremental", static_cast<unsigned long long>(runs),
        static_cast<unsigned long long>(
            incremental.procs_analyzed.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            incremental.procs_replayed.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            incremental.fingerprint_hits.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            incremental.fingerprint_misses.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            incremental.last_dirty_size.load(std::memory_order_relaxed)));
    out += buf;
  }
  uint64_t proofs = vra.proofs.load(std::memory_order_relaxed);
  if (proofs > 0) {
    char buf[200];
    std::snprintf(
        buf, sizeof(buf),
        "  %-12s proofs=%llu discharged=%llu promoted=%llu demoted=%llu "
        "doa-demoted=%llu\n",
        "vra", static_cast<unsigned long long>(proofs),
        static_cast<unsigned long long>(
            vra.proofs_discharged.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            vra.promotions.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            vra.demotions.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            vra.doacross_demotions.load(std::memory_order_relaxed)));
    out += buf;
  }
  return out;
}

JsonValue cacheStatsToJson(const CacheStats& s) {
  JsonValue v = JsonValue::object();
  v.set("hits", JsonValue::of(static_cast<int64_t>(
                    s.hits.load(std::memory_order_relaxed))));
  v.set("misses", JsonValue::of(static_cast<int64_t>(
                      s.misses.load(std::memory_order_relaxed))));
  v.set("inserts", JsonValue::of(static_cast<int64_t>(
                       s.inserts.load(std::memory_order_relaxed))));
  v.set("hit_rate", JsonValue::of(s.hitRate()));
  return v;
}

JsonValue perfStatsToJson(const PerfStats& stats) {
  JsonValue v = JsonValue::object();
  v.set("feasibility", cacheStatsToJson(stats.feasibility));
  return v;
}

JsonValue incrementalCountersToJson(const IncrementalCounters& c) {
  JsonValue v = JsonValue::object();
  auto put = [&v](const char* key, const std::atomic<uint64_t>& a) {
    v.set(key, JsonValue::of(static_cast<int64_t>(
                   a.load(std::memory_order_relaxed))));
  };
  put("runs", c.runs);
  put("procs_analyzed", c.procs_analyzed);
  put("procs_replayed", c.procs_replayed);
  put("fingerprint_hits", c.fingerprint_hits);
  put("fingerprint_misses", c.fingerprint_misses);
  put("last_dirty_size", c.last_dirty_size);
  return v;
}

JsonValue vraCountersToJson(const VraCounters& c) {
  JsonValue v = JsonValue::object();
  auto put = [&v](const char* key, const std::atomic<uint64_t>& a) {
    v.set(key, JsonValue::of(static_cast<int64_t>(
                   a.load(std::memory_order_relaxed))));
  };
  put("analyses", c.analyses);
  put("widenings", c.widenings);
  put("proofs", c.proofs);
  put("proofs_discharged", c.proofs_discharged);
  put("promotions", c.promotions);
  put("demotions", c.demotions);
  put("doacross_demotions", c.doacross_demotions);
  return v;
}

bool cachesEnabled() {
  int ov = g_caches_override.load(std::memory_order_relaxed);
  if (ov >= 0) return ov != 0;
  return envCachesEnabled();
}

void setCachesEnabled(bool enabled) {
  g_caches_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void clearCachesEnabledOverride() {
  g_caches_override.store(-1, std::memory_order_relaxed);
}

}  // namespace padfa
