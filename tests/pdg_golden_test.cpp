// PDG export goldens: tests/pdg_golden/<name>.{dot,json} hold the exact
// `mfc deps` output for a handful of corpus programs. The exports are
// keyed by AST-pre-order node ids and sorted edge keys, so they must be
// byte-identical run over run and build over build; any drift (a new
// edge, a reordered map, a changed label) fails here first, with a
// diff-able artifact.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "corpus/corpus.h"
#include "driver/padfa.h"
#include "pdg/pdg.h"

#ifndef PDG_GOLDEN_DIR
#error "PDG_GOLDEN_DIR must point at the golden DOT/JSON exports"
#endif

namespace padfa {
namespace {

CompiledProgram compileEntry(const CorpusEntry& e) {
  DiagEngine diags;
  auto cp = compileSource(instantiate(e), diags);
  EXPECT_TRUE(cp) << e.name << ":\n" << diags.dump();
  return std::move(*cp);
}

std::string readFile(const std::filesystem::path& p) {
  std::ifstream in(p);
  EXPECT_TRUE(in) << "missing golden " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The golden set: one small program per dependence flavor — a doall
// with privatization (tomcatv), a carried-recurrence mix (spec77), and
// a runtime-test program (ocean).
const char* kGoldenPrograms[] = {"tomcatv", "spec77", "ocean"};

class PdgGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(PdgGolden, DotAndJsonMatchGoldens) {
  const CorpusEntry* e = corpusEntry(GetParam());
  ASSERT_NE(e, nullptr);
  CompiledProgram cp = compileEntry(*e);
  ProgramPdg pdg = buildPdg(*cp.program, cp.loops);

  const auto dir = std::filesystem::path(PDG_GOLDEN_DIR);
  EXPECT_EQ(pdgToDot(pdg, *cp.program),
            readFile(dir / (std::string(e->name) + ".dot")))
      << "regenerate with: mfc deps corpus:" << e->name;
  EXPECT_EQ(pdgToJson(pdg, *cp.program),
            readFile(dir / (std::string(e->name) + ".json")))
      << "regenerate with: mfc deps corpus:" << e->name << " --json";
}

TEST_P(PdgGolden, ExportsAreDeterministic) {
  const CorpusEntry* e = corpusEntry(GetParam());
  ASSERT_NE(e, nullptr);
  CompiledProgram a = compileEntry(*e);
  CompiledProgram b = compileEntry(*e);
  ProgramPdg pa = buildPdg(*a.program, a.loops);
  ProgramPdg pb = buildPdg(*b.program, b.loops);
  EXPECT_EQ(pdgToDot(pa, *a.program), pdgToDot(pb, *b.program));
  EXPECT_EQ(pdgToJson(pa, *a.program), pdgToJson(pb, *b.program));
}

INSTANTIATE_TEST_SUITE_P(GoldenSet, PdgGolden,
                         ::testing::ValuesIn(kGoldenPrograms),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace padfa
