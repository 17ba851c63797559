// Experiment E6 — compile-time cost of predicated analysis vs the base
// array data-flow analysis, over the whole corpus (google-benchmark).
//
// The paper argues the predicated extension is affordable at compile
// time; this measures base vs predicated (and the compile-time-only
// ablation) end-to-end analysis cost over the corpus, serially.
//
// Invoke with `--json <path>` (stripped before google-benchmark sees
// argv) to also write machine-readable results: per-config serial wall
// time on cold caches, the predicated pass uncached, the feasibility
// cache's traffic in the last pass, and the analysis pool's thread count.
#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

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

double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// One serial sweep over the corpus under `cfg`, from a cold feasibility
// cache and zeroed counters. Returns wall-clock milliseconds.
double timedPass(std::vector<Parsed>& parsed, const AnalysisConfig& cfg) {
  pb::FeasibilityCache::global().clear();
  PerfStats::instance().resetAll();
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
  timedPass(parsed, AnalysisConfig::predicated());

  // Per-config serial wall time (warm process, cold caches each).
  double base_ms = timedPass(parsed, AnalysisConfig::baseline());
  double ct_ms = timedPass(parsed, AnalysisConfig::compileTimeOnly());

  // The seed engine's path: uncached.
  setCachesEnabled(false);
  double serial_uncached_ms = timedPass(parsed, AnalysisConfig::predicated());
  clearCachesEnabledOverride();

  double serial_ms = timedPass(parsed, AnalysisConfig::predicated());
  // Cache stats below describe the cached predicated pass (the last
  // reset); tests/cache_coherence_test.cpp holds its hit rate to this
  // file's committed point.
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
  std::fprintf(f, "    \"predicated_serial\": %.3f\n", serial_ms);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"cache\": {\n");
  std::fprintf(f, "    \"feasibility\": %s\n",
               cacheStatsToJson(stats.feasibility).dump().c_str());
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s (predicated %.1f ms, feas hit rate %.1f%%)\n",
              path.c_str(), serial_ms, 100.0 * stats.feasibility.hitRate());
}

}  // namespace

BENCHMARK(BM_BaseAnalysisCorpus)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PredicatedAnalysisCorpus)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CompileTimeOnlyAnalysisCorpus)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  std::string json_path = extractJsonFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) writeAnalysisTimeJson(json_path);
  return 0;
}
