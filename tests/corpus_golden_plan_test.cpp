// Golden per-loop classification for the entire corpus: a regression
// surface that pins down exactly which loop each system parallelizes,
// and which candidate loops ELPD finds parallel.
// Any analysis change that silently alters a decision anywhere in the
// 30-program corpus fails here with a precise loop id.
//
// (Regenerate the table with the snippet in the test's git history /
// by printing classifyLoop over the corpus.)
#include <gtest/gtest.h>

#include <map>

#include "corpus/corpus.h"
#include "driver/padfa.h"

namespace padfa {
namespace {

struct GoldenProgram {
  const char* name;
  std::vector<std::pair<const char*, const char*>> loops;  // id -> outcome
};

const std::vector<GoldenProgram>& golden() {
  static const std::vector<GoldenProgram> table = {
      {"tomcatv",
       {{"main/L8", "base-parallel"},
        {"main/L9", "base-parallel"},
        {"main/L14", "base-parallel"},
        {"main/L15", "base-parallel"},
        {"main/L20", "base-parallel"},
        {"main/L21", "base-parallel"},
        {"main/L23", "base-parallel"},
        {"main/L26", "base-parallel"},
        {"main/L27", "nested-in-parallel"},
        {"main/L32", "base-parallel"}}},
      {"swim",
       {{"main/L8", "base-parallel"},
        {"main/L9", "base-parallel"},
        {"main/L15", "base-parallel"},
        {"main/L16", "base-parallel"},
        {"main/L22", "base-parallel"},
        {"main/L26", "base-parallel"},
        {"main/L27", "base-parallel"},
        {"main/L30", "base-parallel"}}},
      {"su2cor",
       {{"main/L8", "pred-parallel-ct"},
        {"main/L10", "base-parallel"},
        {"main/L14", "base-parallel"},
        {"main/L18", "base-parallel"},
        {"main/L23", "base-parallel"}}},
      {"hydro2d",
       {{"main/L7", "base-parallel"},
        {"main/L8", "pred-parallel-ct"},
        {"main/L16", "base-parallel"},
        {"main/L20", "base-parallel"}}},
      {"mgrid",
       {{"smooth/L3", "base-parallel"},
        {"smooth/L4", "base-parallel"},
        {"main/L14", "base-parallel"},
        {"main/L15", "base-parallel"},
        {"main/L19", "sequential"},
        {"main/L23", "base-parallel"}}},
      {"applu",
       {{"main/L7", "base-parallel"},
        {"main/L8", "base-parallel"},
        {"main/L9", "sequential"},
        {"main/L10", "sequential"},
        {"main/L12", "base-parallel"}}},
      {"turb3d",
       {{"main/L5", "base-parallel"},
        {"main/L6", "base-parallel"},
        {"main/L8", "base-parallel"},
        {"main/L10", "base-parallel"},
        {"main/L11", "base-parallel"},
        {"main/L13", "not-candidate"}}},
      {"apsi",
       {{"main/L7", "base-parallel"},
        {"main/L8", "pred-parallel-rt"},
        {"main/L13", "base-parallel"},
        {"main/L17", "base-parallel"}}},
      {"fpppp",
       {{"main/L8", "sequential"},
        {"main/L9", "sequential"},
        {"main/L10", "base-parallel"},
        {"main/L12", "base-parallel"}}},
      {"wave5",
       {{"main/L7", "base-parallel"},
        {"main/L8", "pred-parallel-ct"},
        {"main/L11", "base-parallel"},
        {"main/L12", "base-parallel"},
        {"main/L15", "base-parallel"}}},
      {"appbt",
       {{"main/L7", "base-parallel"},
        {"main/L8", "base-parallel"},
        {"main/L10", "base-parallel"},
        {"main/L11", "base-parallel"},
        {"main/L12", "base-parallel"},
        {"main/L14", "base-parallel"},
        {"main/L19", "base-parallel"}}},
      {"applu_nas",
       {{"main/L6", "base-parallel"},
        {"main/L7", "base-parallel"},
        {"main/L9", "sequential"},
        {"main/L10", "sequential"},
        {"main/L14", "base-parallel"},
        {"main/L15", "base-parallel"},
        {"main/L18", "base-parallel"}}},
      {"appsp",
       {{"fillv/L3", "base-parallel"},
        {"main/L13", "base-parallel"},
        {"main/L14", "base-parallel"},
        {"main/L16", "base-parallel"},
        {"main/L18", "base-parallel"},
        {"main/L22", "pred-parallel-rt"},
        {"main/L25", "base-parallel"},
        {"main/L26", "base-parallel"},
        {"main/L31", "base-parallel"}}},
      {"buk",
       {{"main/L7", "base-parallel"},
        {"main/L8", "base-parallel"},
        {"main/L9", "sequential"},
        {"main/L10", "sequential"},
        {"main/L12", "base-parallel"}}},
      {"cgm",
       {{"main/L8", "base-parallel"},
        {"main/L9", "base-parallel"},
        {"main/L10", "base-parallel"},
        {"main/L12", "base-parallel"},
        {"main/L13", "sequential"},
        {"main/L15", "base-parallel"}}},
      {"embar",
       {{"main/L6", "base-parallel"}}},
      {"fftpde",
       {{"main/L7", "base-parallel"},
        {"main/L11", "base-parallel"},
        {"main/L15", "base-parallel"},
        {"main/L20", "base-parallel"}}},
      {"mgrid_nas",
       {{"relax/L3", "base-parallel"},
        {"main/L11", "base-parallel"},
        {"main/L13", "sequential"},
        {"main/L16", "base-parallel"}}},
      {"adm",
       {{"main/L6", "base-parallel"},
        {"main/L7", "base-parallel"},
        {"main/L9", "base-parallel"},
        {"main/L10", "base-parallel"},
        {"main/L14", "base-parallel"},
        {"main/L15", "nested-in-parallel"},
        {"main/L18", "base-parallel"}}},
      {"arc2d",
       {{"main/L7", "base-parallel"},
        {"main/L8", "base-parallel"},
        {"main/L10", "base-parallel"},
        {"main/L11", "base-parallel"},
        {"main/L12", "base-parallel"},
        {"main/L19", "base-parallel"}}},
      {"bdna",
       {{"main/L7", "base-parallel"},
        {"main/L8", "base-parallel"},
        {"main/L10", "nested-in-parallel"},
        {"main/L14", "sequential"},
        {"main/L16", "base-parallel"}}},
      {"dyfesm",
       {{"main/L8", "base-parallel"},
        {"main/L9", "base-parallel"},
        {"main/L11", "base-parallel"},
        {"main/L17", "pred-parallel-rt"},
        {"main/L24", "base-parallel"}}},
      {"flo52",
       {{"main/L6", "base-parallel"},
        {"main/L7", "base-parallel"},
        {"main/L9", "base-parallel"},
        {"main/L10", "base-parallel"},
        {"main/L16", "sequential"},
        {"main/L18", "base-parallel"}}},
      {"mdg",
       {{"main/L7", "base-parallel"},
        {"main/L8", "pred-parallel-ct"},
        {"main/L9", "base-parallel"},
        {"main/L11", "base-parallel"},
        {"main/L15", "base-parallel"}}},
      {"ocean",
       {{"main/L7", "base-parallel"},
        {"main/L8", "pred-parallel-ct"},
        {"main/L11", "base-parallel"},
        {"main/L13", "base-parallel"}}},
      {"qcd",
       {{"main/L7", "base-parallel"},
        {"main/L8", "base-parallel"},
        {"main/L9", "sequential"},
        {"main/L10", "base-parallel"},
        {"main/L12", "base-parallel"}}},
      {"spec77",
       {{"main/L6", "base-parallel"},
        {"main/L7", "base-parallel"},
        {"main/L9", "base-parallel"},
        {"main/L11", "base-parallel"},
        {"main/L14", "sequential"},
        {"main/L16", "base-parallel"}}},
      {"track",
       {{"main/L7", "base-parallel"},
        {"main/L8", "base-parallel"},
        {"main/L9", "sequential"},
        {"main/L10", "base-parallel"},
        {"main/L12", "base-parallel"}}},
      {"trfd",
       {{"main/L7", "base-parallel"},
        {"main/L8", "pred-parallel-ct"},
        {"main/L9", "base-parallel"},
        {"main/L11", "base-parallel"},
        {"main/L12", "base-parallel"},
        {"main/L16", "base-parallel"}}},
      {"erlebacher",
       {{"main/L6", "base-parallel"},
        {"main/L7", "base-parallel"},
        {"main/L9", "base-parallel"},
        {"main/L10", "base-parallel"},
        {"main/L11", "nested-in-parallel"},
        {"main/L15", "base-parallel"},
        {"main/L19", "base-parallel"}}},
      {"sor_pipe",
       {{"main/L5", "base-parallel"},
        {"main/L6", "pred-doacross"},
        {"main/L8", "base-parallel"},
        {"main/L12", "base-parallel"}}},
      {"lin_rec4",
       {{"main/L5", "base-parallel"},
        {"main/L6", "pred-doacross"},
        {"main/L8", "base-parallel"},
        {"main/L12", "base-parallel"}}},
      {"wavefront_sync",
       {{"main/L6", "base-parallel"},
        {"main/L7", "pred-doacross"},
        {"main/L9", "base-parallel"},
        {"main/L14", "base-parallel"}}},
  };
  return table;
}

class GoldenPlan : public ::testing::TestWithParam<int> {};

TEST_P(GoldenPlan, ClassificationMatchesGolden) {
  const GoldenProgram& g = golden()[static_cast<size_t>(GetParam())];
  const CorpusEntry* e = corpusEntry(g.name);
  ASSERT_NE(e, nullptr);
  DiagEngine diags;
  auto cp = compileSource(instantiate(*e), diags);
  ASSERT_TRUE(cp.has_value()) << diags.dump();

  std::map<std::string, std::string> actual;
  for (const LoopNode* node : cp->loops.allLoops())
    actual[node->loop->loop_id] =
        std::string(loopOutcomeName(classifyLoop(*cp, node->loop)));

  ASSERT_EQ(actual.size(), g.loops.size()) << g.name;
  for (const auto& [id, outcome] : g.loops) {
    auto it = actual.find(id);
    ASSERT_NE(it, actual.end()) << g.name << " lost loop " << id;
    EXPECT_EQ(it->second, outcome) << g.name << " loop " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, GoldenPlan, ::testing::Range(0, 33),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(golden()[static_cast<size_t>(info.param)].name);
    });

TEST(GoldenPlan, CoversWholeCorpus) {
  ASSERT_EQ(golden().size(), corpus().size());
}

// ELPD, the paper's yardstick, on every candidate loop of the corpus: one
// `<program> <mfc elpd line>` per candidate, in corpus order. Regenerate
// by prefixing each corpus program's `mfc elpd` output with its name.
const char* kElpdGolden = R"(su2cor main/L8          privatizable
hydro2d main/L8          independent
mgrid main/L19         not parallel (cross-iteration flow)
applu main/L9          independent
applu main/L10         not parallel (cross-iteration flow)
apsi main/L8          independent
fpppp main/L8          not parallel (cross-iteration flow)
fpppp main/L9          not parallel (cross-iteration flow)
wave5 main/L8          independent
applu_nas main/L9          not parallel (cross-iteration flow)
applu_nas main/L10         not parallel (cross-iteration flow)
appsp main/L22         privatizable
buk main/L9          independent
buk main/L10         independent
cgm main/L13         independent
mgrid_nas main/L13         privatizable
bdna main/L14         not parallel (cross-iteration flow)
dyfesm main/L17         independent
flo52 main/L16         not parallel (cross-iteration flow)
mdg main/L8          privatizable
ocean main/L8          independent
qcd main/L9          independent
spec77 main/L14         not parallel (cross-iteration flow)
track main/L9          independent
trfd main/L8          privatizable
sor_pipe main/L6          not parallel (cross-iteration flow)
lin_rec4 main/L6          not parallel (cross-iteration flow)
wavefront_sync main/L7          not parallel (cross-iteration flow)
)";

TEST(GoldenElpd, CandidateVerdictsMatchGolden) {
  std::string actual;
  for (const CorpusEntry& e : corpus()) {
    DiagEngine diags;
    auto cp = compileSource(instantiate(e), diags);
    ASSERT_TRUE(cp.has_value()) << e.name << ": " << diags.dump();
    std::string report = renderElpdReport(*cp);
    for (size_t at = 0, eol; at < report.size(); at = eol + 1) {
      eol = report.find('\n', at);
      actual += e.name + " " + report.substr(at, eol - at + 1);
    }
  }
  EXPECT_EQ(actual, kElpdGolden);
}

// The paper's headline by Table 2's rule: predicated analysis recovers
// (parallelizes at compile time or under a run-time test) more than 40%
// of the candidates ELPD finds parallel.
TEST(GoldenElpd, PredicatedRecoversOverFortyPercentOfElpdParallel) {
  int elpd_par = 0, recovered = 0;
  for (const CorpusEntry& e : corpus()) {
    DiagEngine diags;
    auto cp = compileSource(instantiate(e), diags);
    ASSERT_TRUE(cp.has_value()) << e.name << ": " << diags.dump();
    RaceOracle elpd = runElpd(*cp);
    for (const LoopNode* node : cp->loops.allLoops()) {
      if (!isCandidate(*cp, node->loop)) continue;
      if (elpd.verdict(node->loop).parallelizable()) ++elpd_par;
      const LoopPlan* pp = cp->pred.planFor(node->loop);
      if (pp && (pp->status == LoopStatus::Parallel ||
                 pp->status == LoopStatus::RuntimeTest))
        ++recovered;
    }
  }
  ASSERT_GT(elpd_par, 0);
  EXPECT_GE(recovered, 0.40 * elpd_par)
      << recovered << " of " << elpd_par << " ELPD-parallel candidates";
}

}  // namespace
}  // namespace padfa
