// Corpus-wide cache/parallelism coherence: the Presburger feasibility
// cache and the task-parallel driver are pure performance features —
// every LoopPlan, loop outcome, and degradation flag must be bit-identical
// to the serial, uncached engine regardless of cache state and thread
// count.
//
// The test compiles the whole corpus once serially with the feasibility
// cache disabled (the reference), then recompiles it under cache {off,
// on} × pool sizes {1, 2, 8} — deliberately *without* clearing the global
// cache between configurations, so later runs also exercise warm-cache
// determinism — and compares a full structural signature of every
// program's plans. A second test holds the cache's hit rate to the
// committed trajectory point.
#include <gtest/gtest.h>

#include <fstream>
#include <future>
#include <sstream>

#include "corpus/corpus.h"
#include "driver/padfa.h"
#include "driver/plan_signature.h"
#include "presburger/feasibility_cache.h"
#include "runtime/thread_pool.h"
#include "support/json.h"
#include "support/perf_stats.h"

namespace padfa {
namespace {

// Full structural signature of one compiled program's parallelization
// output, via the shared driver/plan_signature.h rendering (also used by
// the persistent summary store and the mfcd daemon — this test is the
// coherence anchor for all of them). FM-step/constraint meters are
// intentionally excluded: cache hits legitimately skip work, and the
// contract is identical *plans*, not identical work counts.
std::string signatureOf(const CorpusEntry& e) {
  DiagEngine diags;
  auto cp = compileSource(instantiate(e), diags);
  if (!cp) return "compile-error: " + diags.dump();
  return planSignature(*cp);
}

std::vector<std::string> sweepCorpus(bool caches, unsigned threads) {
  setCachesEnabled(caches);
  const std::vector<CorpusEntry>& entries = corpus();
  std::vector<std::string> sigs(entries.size());
  if (threads <= 1) {
    for (size_t i = 0; i < entries.size(); ++i)
      sigs[i] = signatureOf(entries[i]);
  } else {
    ThreadPool pool(threads);
    std::vector<std::future<std::string>> futs;
    futs.reserve(entries.size());
    for (const CorpusEntry& e : entries)
      futs.push_back(pool.submit([&e] { return signatureOf(e); }));
    for (size_t i = 0; i < entries.size(); ++i) sigs[i] = futs[i].get();
  }
  return sigs;
}

TEST(CacheCoherence, PlansIdenticalAcrossCachesAndThreads) {
  // Self-contained regardless of prior in-process cache traffic.
  pb::FeasibilityCache::global().clear();
  PerfStats::instance().resetAll();

  std::vector<std::string> ref = sweepCorpus(/*caches=*/false, /*threads=*/1);
  ASSERT_EQ(ref.size(), corpus().size());

  struct Config {
    bool caches;
    unsigned threads;
  };
  const Config configs[] = {{false, 2}, {false, 8}, {true, 1},
                            {true, 2},  {true, 8}};
  for (const Config& c : configs) {
    std::vector<std::string> got = sweepCorpus(c.caches, c.threads);
    for (size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(ref[i], got[i])
          << corpus()[i].name << " diverges with caches="
          << (c.caches ? "on" : "off") << " threads=" << c.threads;
  }
  clearCachesEnabledOverride();

  // The cached runs must actually have exercised the cache; a
  // permanently-missing cache would make this whole test vacuous.
  EXPECT_GT(PerfStats::instance().feasibility.hits.load(), 0u);
  EXPECT_GT(PerfStats::instance().feasibility.inserts.load(), 0u);
}

// Hit-rate tripwire: the feasibility hit rate is a workload property, not
// a machine property, so one serial predicated pass over the corpus from
// a cold cache must not fall more than 5 points below the committed
// trajectory point (bench/trajectory/BENCH_analysis_time.json, written by
// `fig_analysis_time --json` from the same pass). A drop means something
// defeated the cache: a key canonicalization regression, a cache bypass,
// a clear at the wrong time. Wall times are not compared.
TEST(CacheCoherence, FeasibilityHitRateHoldsCommittedPoint) {
  std::ifstream in(BENCH_TRAJECTORY_DIR "/BENCH_analysis_time.json");
  ASSERT_TRUE(in) << "cannot read " BENCH_TRAJECTORY_DIR;
  std::stringstream text;
  text << in.rdbuf();
  JsonValue point;
  std::string err;
  ASSERT_TRUE(parseJson(text.str(), point, err)) << err;
  const double committed =
      point.get("cache").get("feasibility").get("hit_rate").asNumber();
  ASSERT_GT(committed, 0.0);

  std::vector<std::unique_ptr<Program>> programs;
  for (const CorpusEntry& e : corpus()) {
    DiagEngine diags;
    auto p = parseProgram(instantiate(e), diags);
    ASSERT_TRUE(p && analyze(*p, diags)) << e.name << ": " << diags.dump();
    programs.push_back(std::move(p));
  }
  setCachesEnabled(true);
  pb::FeasibilityCache::global().clear();
  PerfStats::instance().resetAll();
  for (auto& p : programs) analyzeProgram(*p, AnalysisConfig::predicated());
  const double fresh = PerfStats::instance().feasibility.hitRate();
  clearCachesEnabledOverride();
  const double tolerance = 0.05;
  EXPECT_GE(fresh, committed - tolerance)
      << "feasibility hit rate: committed " << committed << ", fresh "
      << fresh;
}

// Same-pool runOnAll re-entry is a programming error that used to
// deadlock; it must fail fast instead (satellite: re-entry guard).
TEST(ThreadPoolGuards, NestedRunOnAllFromWorkerThrows) {
  ThreadPool pool(4);
  std::future<bool> threw = pool.submit([&pool] {
    try {
      pool.runOnAll([](unsigned) {});
      return false;
    } catch (const std::logic_error&) {
      return true;
    }
  });
  EXPECT_TRUE(threw.get());
}

// submit() from a worker of the same pool must execute inline (never
// queue behind the submitting worker itself).
TEST(ThreadPoolGuards, SubmitFromWorkerRunsInline) {
  ThreadPool pool(2);
  std::future<bool> ok = pool.submit([&pool] {
    bool inner_ran = false;
    pool.submit([&inner_ran] { inner_ran = true; }).get();
    return inner_ran;
  });
  EXPECT_TRUE(ok.get());
}

}  // namespace
}  // namespace padfa
