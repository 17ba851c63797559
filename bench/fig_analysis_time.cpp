// Experiment E6 — compile-time cost of predicated analysis vs the base
// array data-flow analysis, over the whole corpus (google-benchmark).
//
// The paper argues the predicated extension is affordable at compile
// time; this measures base vs predicated (and the compile-time-only
// ablation) end-to-end analysis cost per program and in aggregate, plus
// the program-parallel variant driven by the analysis pool.
//
// Invoke with `--json <path>` (stripped before google-benchmark sees
// argv) to also write machine-readable results: per-config wall time, a
// serial-vs-parallel speedup measurement on cold caches, cache hit
// rates, and the thread count.
#include <benchmark/benchmark.h>

#include <chrono>
#include <future>

#include "bench_util.h"
#include "presburger/feasibility_cache.h"
#include "runtime/thread_pool.h"

using namespace padfa;
using namespace padfa::bench;

namespace {

struct Parsed {
  std::unique_ptr<Program> program;
};

Parsed parseEntry(const CorpusEntry& e) {
  DiagEngine diags;
  auto p = parseProgram(instantiate(e), diags);
  if (!p || !analyze(*p, diags)) {
    std::fprintf(stderr, "%s: %s\n", e.name.c_str(), diags.dump().c_str());
    std::exit(1);
  }
  return {std::move(p)};
}

std::vector<Parsed> parseCorpus() {
  std::vector<Parsed> parsed;
  for (const auto& e : corpus()) parsed.push_back(parseEntry(e));
  return parsed;
}

void BM_BaseAnalysisCorpus(benchmark::State& state) {
  std::vector<Parsed> parsed = parseCorpus();
  for (auto _ : state) {
    for (auto& p : parsed) {
      AnalysisResult r = analyzeProgram(*p.program,
                                        AnalysisConfig::baseline());
      benchmark::DoNotOptimize(r.plans.size());
    }
  }
  state.counters["programs"] = static_cast<double>(parsed.size());
}

void BM_PredicatedAnalysisCorpus(benchmark::State& state) {
  std::vector<Parsed> parsed = parseCorpus();
  for (auto _ : state) {
    for (auto& p : parsed) {
      AnalysisResult r = analyzeProgram(*p.program,
                                        AnalysisConfig::predicated());
      benchmark::DoNotOptimize(r.plans.size());
    }
  }
  state.counters["programs"] = static_cast<double>(parsed.size());
}

void BM_CompileTimeOnlyAnalysisCorpus(benchmark::State& state) {
  std::vector<Parsed> parsed = parseCorpus();
  for (auto _ : state) {
    for (auto& p : parsed) {
      AnalysisResult r = analyzeProgram(*p.program,
                                        AnalysisConfig::compileTimeOnly());
      benchmark::DoNotOptimize(r.plans.size());
    }
  }
  state.counters["programs"] = static_cast<double>(parsed.size());
}

// Program-parallel predicated analysis: one pool task per corpus
// program, all threads sharing the global feasibility cache.
void BM_PredicatedAnalysisCorpusParallel(benchmark::State& state) {
  std::vector<Parsed> parsed = parseCorpus();
  for (auto _ : state) {
    std::vector<std::future<size_t>> futs;
    futs.reserve(parsed.size());
    for (auto& p : parsed)
      futs.push_back(analysisPool().submit([&p] {
        return analyzeProgram(*p.program, AnalysisConfig::predicated())
            .plans.size();
      }));
    size_t total = 0;
    for (auto& f : futs) total += f.get();
    benchmark::DoNotOptimize(total);
  }
  state.counters["programs"] = static_cast<double>(parsed.size());
  state.counters["threads"] = static_cast<double>(analysisThreadCount());
}

double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// One full predicated sweep over the corpus on `threads` threads.
// Returns wall-clock milliseconds. Clears the global caches first so
// serial and parallel passes are compared cold-for-cold.
double timedPredicatedPass(std::vector<Parsed>& parsed, unsigned threads) {
  pb::FeasibilityCache::global().clear();
  PerfStats::instance().resetAll();
  auto t0 = std::chrono::steady_clock::now();
  if (threads <= 1) {
    for (auto& p : parsed) {
      AnalysisResult r =
          analyzeProgram(*p.program, AnalysisConfig::predicated());
      benchmark::DoNotOptimize(r.plans.size());
    }
  } else {
    // Caller participates via the barrier API, so `threads` means
    // `threads` executing threads; programs are claimed off an atomic
    // counter (self-scheduling — corpus programs vary a lot in cost).
    ThreadPool pool(threads);
    std::atomic<size_t> next{0};
    pool.runOnAll([&](unsigned) {
      for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) <
                     parsed.size();) {
        AnalysisResult r =
            analyzeProgram(*parsed[i].program, AnalysisConfig::predicated());
        benchmark::DoNotOptimize(r.plans.size());
      }
    });
  }
  return msSince(t0);
}

double timedConfigPass(std::vector<Parsed>& parsed,
                       const AnalysisConfig& cfg) {
  auto t0 = std::chrono::steady_clock::now();
  for (auto& p : parsed) {
    AnalysisResult r = analyzeProgram(*p.program, cfg);
    benchmark::DoNotOptimize(r.plans.size());
  }
  return msSince(t0);
}

void writeAnalysisTimeJson(const std::string& path) {
  std::vector<Parsed> parsed = parseCorpus();
  unsigned threads = analysisThreadCount();

  // Warm the process (allocator pools, page faults, lazy statics) so the
  // first timed pass is not penalized relative to later ones.
  timedPredicatedPass(parsed, 1);

  // Per-config serial wall time (warm process, cold caches each).
  pb::FeasibilityCache::global().clear();
  PerfStats::instance().resetAll();
  double base_ms = timedConfigPass(parsed, AnalysisConfig::baseline());
  pb::FeasibilityCache::global().clear();
  double ct_ms = timedConfigPass(parsed, AnalysisConfig::compileTimeOnly());

  // The seed engine's path: serial and uncached.
  setCachesEnabled(false);
  double serial_uncached_ms = timedPredicatedPass(parsed, 1);
  clearCachesEnabledOverride();

  // Serial vs program-parallel predicated sweep, cold caches each.
  double serial_ms = timedPredicatedPass(parsed, 1);
  double parallel_ms = timedPredicatedPass(parsed, threads);
  // Cache stats below describe the parallel pass (the last reset).
  PerfStats& stats = PerfStats::instance();

  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"fig_analysis_time\",\n");
  std::fprintf(f, "  \"threads\": %u,\n", threads);
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"programs\": %zu,\n", parsed.size());
  std::fprintf(f, "  \"caches_enabled\": %s,\n",
               cachesEnabled() ? "true" : "false");
  std::fprintf(f, "  \"config_wall_ms\": {\n");
  std::fprintf(f, "    \"baseline\": %.3f,\n", base_ms);
  std::fprintf(f, "    \"compile_time_only\": %.3f,\n", ct_ms);
  std::fprintf(f, "    \"predicated_serial_uncached\": %.3f,\n",
               serial_uncached_ms);
  std::fprintf(f, "    \"predicated_serial\": %.3f,\n", serial_ms);
  std::fprintf(f, "    \"predicated_parallel\": %.3f\n", parallel_ms);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"parallel_speedup\": %.3f,\n",
               parallel_ms > 0 ? serial_ms / parallel_ms : 0.0);
  std::fprintf(f, "  \"speedup_vs_serial_uncached\": %.3f,\n",
               parallel_ms > 0 ? serial_uncached_ms / parallel_ms : 0.0);
  std::fprintf(f, "  \"cache\": {\n");
  std::fprintf(f, "    \"feasibility\": %s\n",
               cacheStatsToJson(stats.feasibility).dump().c_str());
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s (speedup %.2fx on %u threads, feas hit rate %.1f%%)\n",
              path.c_str(), parallel_ms > 0 ? serial_ms / parallel_ms : 0.0,
              threads, 100.0 * stats.feasibility.hitRate());
}

}  // namespace

BENCHMARK(BM_BaseAnalysisCorpus)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PredicatedAnalysisCorpus)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CompileTimeOnlyAnalysisCorpus)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PredicatedAnalysisCorpusParallel)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  std::string json_path = extractJsonFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) writeAnalysisTimeJson(json_path);
  return 0;
}
