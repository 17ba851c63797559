// Tests of the benchmark itself: its statistics helpers, its seeding, its
// environment guard and tracer, and that each kind of wrong output is
// counted as a failed operation rather than crashing the run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <numeric>

#include "common.h"
#include "corpus/corpus.h"
#include "driver/plan_signature.h"
#include "phases.h"
#include "stats.h"

using namespace perfbench;

namespace {

std::string corpusSource(const char* name, int scale) {
  const padfa::CorpusEntry* e = padfa::corpusEntry(name);
  EXPECT_NE(e, nullptr) << name;
  return e ? padfa::instantiate(*e, scale) : "";
}

}  // namespace

TEST(Stats, PercentileInterpolatesBetweenClosestRanks) {
  std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4);
  EXPECT_DOUBLE_EQ(median(v), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 1.75);
  std::vector<double> hundred(101);
  std::iota(hundred.begin(), hundred.end(), 0.0);
  EXPECT_DOUBLE_EQ(percentile(hundred, 99), 99);
  EXPECT_DOUBLE_EQ(median({7}), 7);
  EXPECT_TRUE(std::isnan(median({})));
}

TEST(Stats, Geomean) {
  EXPECT_NEAR(geomean({1, 4, 16}), 4, 1e-12);
  EXPECT_NEAR(geomean({2, 8}), 4, 1e-12);
  EXPECT_TRUE(std::isnan(geomean({1, 0, 2})));
  EXPECT_TRUE(std::isnan(geomean({})));
}

TEST(Seeding, SameSeedGivesIdenticalOperationSequence) {
  auto sequence = [](uint64_t seed) {
    Rng rng(seed);
    std::vector<size_t> order(33);
    std::iota(order.begin(), order.end(), 0);
    std::vector<size_t> ops;
    for (int round = 0; round < 10; ++round) {
      rng.shuffle(order);
      ops.insert(ops.end(), order.begin(), order.end());
      ops.push_back(static_cast<size_t>(rng.below(33)));
    }
    return ops;
  };
  EXPECT_EQ(sequence(42), sequence(42));
  EXPECT_NE(sequence(42), sequence(43));
}

TEST(EnvGuard, RefusesKnobsThatChangeTheProgram) {
  for (const char* var : {"PADFA_NO_CACHE", "PADFA_NO_VRA", "PADFA_FAULT_RATE",
                          "PADFA_IPA_CHECK", "PADFA_BUDGET_FM_STEPS"}) {
    ASSERT_FALSE(refusedEnvVar()) << *refusedEnvVar();
    setenv(var, "1", 1);
    auto refused = refusedEnvVar();
    ASSERT_TRUE(refused) << var;
    EXPECT_EQ(*refused, var);
    unsetenv(var);
  }
  setenv("PADFA_SCHED", "dynamic", 1);  // recorded, not refused
  EXPECT_FALSE(refusedEnvVar());
  EXPECT_NE(environmentJson().find("\"PADFA_SCHED\": \"dynamic\""),
            std::string::npos);
  unsetenv("PADFA_SCHED");
}

TEST(ExpectedFiles, DiffShowsChangedAddedAndRemovedEntries) {
  std::vector<std::pair<std::string, std::string>> a = {{"x", "1"}, {"y", "2"}};
  std::vector<std::pair<std::string, std::string>> b = {{"x", "1"}, {"y", "3"},
                                                        {"z", "4"}};
  EXPECT_EQ(diffKeyValues(a, a), "");
  EXPECT_EQ(diffKeyValues(a, b), "- y 2\n+ y 3\n+ z 4\n");
  EXPECT_EQ(diffKeyValues(b, a), "- y 3\n+ y 2\n- z 4\n");
}

TEST(Tracer, SelfTimeExcludesDirectChildren) {
  Tracer t;
  t.setEnabled(true);
  t.beginOp();
  {
    Tracer::Span root(t, "root");
    { Tracer::Span a(t, "a"); }
    { Tracer::Span b(t, "b"); { Tracer::Span c(t, "a"); } }
  }
  ASSERT_EQ(t.spans().size(), 4u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[3].parent, 2);
  for (const SpanRecord& s : t.spans()) EXPECT_EQ(s.op, t.spans()[0].op);
  double total = 0;
  for (const auto& [name, ms] : t.selfMs()) {
    EXPECT_GE(ms, 0) << name;
    total += ms;
  }
  const SpanRecord& root = t.spans()[0];
  EXPECT_NEAR(total, static_cast<double>(root.end_ns - root.start_ns) / 1e6,
              1e-9);
  Tracer off;
  { Tracer::Span s(off, "ignored"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(FailureAccounting, ForgedDigestCountsAsFailure) {
  std::string src = corpusSource("embar", 1);
  padfa::DiagEngine diags;
  auto cp = padfa::compileSource(src, diags);
  ASSERT_TRUE(cp);
  std::string digest = signatureDigest(padfa::planSignature(*cp));
  Tracer tracer;

  Tally good;
  CompilePhase right({{"embar", src, digest}}, 1);
  runInterleaved({&right}, {1.0}, 0, tracer, good);
  EXPECT_EQ(good.attempted, 1u);
  EXPECT_EQ(good.failed, 0u);

  Tally bad;
  CompilePhase forged({{"embar", src, "0000000000000000"}}, 1);
  runInterleaved({&forged}, {1.0}, 0, tracer, bad);
  EXPECT_EQ(bad.attempted, 1u);
  EXPECT_EQ(bad.failed, 1u);
}

TEST(FailureAccounting, StepByStepCompileMatchesCompileSource) {
  std::string src = corpusSource("ocean", 1);
  padfa::DiagEngine d1, d2;
  Tracer tracer;
  tracer.setEnabled(true);
  auto a = padfa::compileSource(src, d1);
  auto b = compileSteps(src, d2, tracer);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(padfa::planSignature(*a), padfa::planSignature(*b));
  EXPECT_FALSE(tracer.spans().empty());
}

TEST(FailureAccounting, PerturbedChecksumCountsAsFailure) {
  std::string src = corpusSource("sor_pipe", 1);
  padfa::DiagEngine diags;
  auto cp = padfa::compileSource(src, diags);
  ASSERT_TRUE(cp);
  double seq = padfa::execute(*cp->program, {}).checksum;
  EXPECT_TRUE(checksumClose(seq, seq));
  EXPECT_FALSE(checksumClose(seq + 1e-3 * (std::fabs(seq) + 1), seq));
  Tracer tracer;

  Tally good;
  ExecPhase right({{"sor_pipe", src, seq}}, 1, 2);
  right.setup();
  runInterleaved({&right}, {1.0}, 0, tracer, good);
  EXPECT_EQ(good.attempted, ExecPhase::kConfigs);
  EXPECT_EQ(good.failed, 0u);

  Tally bad;
  ExecPhase perturbed({{"sor_pipe", src, seq + 1.0}}, 1, 2);
  perturbed.setup();
  runInterleaved({&perturbed}, {1.0}, 0, tracer, bad);
  EXPECT_EQ(bad.attempted, ExecPhase::kConfigs);
  EXPECT_EQ(bad.failed, ExecPhase::kConfigs);
}

TEST(FailureAccounting, ForcedWarmMissCountsAsFailure) {
  Tracer tracer;
  ServePhase serve({{"ocean", corpusSource("ocean", 1)}}, 1,
                   "perfbench_test_serve");
  serve.openStore();  // not primed: the resubmit cannot hit
  Tally miss;
  serve.request(ServePhase::kResubmit, 0, tracer, miss);
  EXPECT_EQ(miss.attempted, 1u);
  EXPECT_EQ(miss.failed, 1u);

  serve.setup();
  Tally ok;
  serve.request(ServePhase::kResubmit, 0, tracer, ok);
  serve.request(ServePhase::kComment, 0, tracer, ok);
  serve.request(ServePhase::kBody, 0, tracer, ok);
  serve.request(ServePhase::kResubmit, 0, tracer, ok);
  EXPECT_EQ(ok.attempted, 4u);
  EXPECT_EQ(ok.failed, 0u) << (ok.first_failures.empty()
                                   ? ""
                                   : ok.first_failures.front());
}
