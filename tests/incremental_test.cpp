// Corpus-wide property test for incremental re-analysis: for every
// corpus program and several single-procedure edit classes, the
// incremental compile must (a) re-analyze exactly the static ancestor
// closure of the changed procedures, replaying everything else from the
// persisted deep summaries, and (b) produce plan signatures
// byte-identical to a cold, ungoverned compile of the edited source.
#include <gtest/gtest.h>

#include <regex>

#include "corpus/corpus.h"
#include "driver/plan_signature.h"
#include "ipa/callgraph.h"
#include "ipa/fingerprint.h"
#include "ipa/incremental.h"
#include "store/summary_store.h"
#include "vra/vra.h"

namespace padfa {
namespace {

std::optional<CompiledProgram> compile(const std::string& src) {
  DiagEngine diags;
  auto cp = compileSource(src, diags);
  EXPECT_TRUE(cp.has_value()) << diags.dump();
  return cp;
}

/// Names of procedures whose canonical text differs between the two
/// programs (keyed by name; procedures present in only one side count
/// as changed).
std::set<std::string> changedProcs(const Program& before,
                                   const Program& after) {
  auto locals = [](const Program& p) {
    ipa::CallGraph cg = ipa::CallGraph::build(p);
    auto fps = ipa::fingerprintProgram(p, cg);
    std::map<std::string, uint64_t> out;
    for (const auto& proc : p.procs)
      out[std::string(p.interner.str(proc->name))] =
          fps.local.at(proc.get());
    return out;
  };
  auto a = locals(before), b = locals(after);
  std::set<std::string> changed;
  for (const auto& [name, fp] : b)
    if (!a.count(name) || a.at(name) != fp) changed.insert(name);
  for (const auto& [name, fp] : a)
    if (!b.count(name)) changed.insert(name);
  return changed;
}

/// The expected dirty set: the static ancestor closure of `changed` on
/// the edited program's call graph, as names in program order.
std::vector<std::string> expectedDirty(const Program& after,
                                       const std::set<std::string>& changed) {
  ipa::CallGraph cg = ipa::CallGraph::build(after);
  std::set<const ProcDecl*> seed;
  for (const auto& proc : after.procs)
    if (changed.count(std::string(after.interner.str(proc->name))))
      seed.insert(proc.get());
  std::set<const ProcDecl*> closure = cg.ancestorClosure(seed);
  std::vector<std::string> names;
  for (const ProcDecl* p : cg.procs())
    if (closure.count(p))
      names.emplace_back(after.interner.str(p->name));
  return names;
}

/// Seed an ephemeral store from `original`, compile `edited`
/// incrementally against it, and assert the two core properties.
void checkEdit(const std::string& original, const std::string& edited,
               const std::string& label) {
  store::SummaryStore st("");
  DiagEngine d1;
  auto seed = ipa::compileSourceIncremental(original, d1,
                                            BudgetLimits::defaults(), st);
  ASSERT_TRUE(seed.has_value()) << label << "\n" << d1.dump();

  DiagEngine d2;
  ipa::IncrementalInfo info;
  auto inc = ipa::compileSourceIncremental(edited, d2,
                                           BudgetLimits::defaults(), st,
                                           &info);
  ASSERT_TRUE(inc.has_value()) << label << "\n" << d2.dump();
  ASSERT_TRUE(info.incremental) << label;

  DiagEngine d3;
  auto cold = compileSource(edited, d3);
  ASSERT_TRUE(cold.has_value()) << label << "\n" << d3.dump();

  // (a) minimal invalidation: dirty == static ancestor closure of the
  // procedures whose canonical text changed.
  auto changed = changedProcs(*seed->program, *inc->program);
  EXPECT_EQ(info.dirty, expectedDirty(*inc->program, changed)) << label;
  EXPECT_EQ(info.procs_replayed + info.procs_analyzed, info.procs_total)
      << label;

  // (b) cold equivalence, byte for byte.
  EXPECT_EQ(planSignature(*inc), planSignature(*cold)) << label;
}

/// Insert a fresh (unused) declaration at the top of `proc`'s body — a
/// canonical-text change that leaves every plan of the procedure intact
/// but shifts program-wide decl uids for everything declared after it.
std::string bodyEdit(const std::string& src, const std::string& proc,
                     bool* ok) {
  size_t p = src.find("proc " + proc);
  *ok = p != std::string::npos;
  if (!*ok) return src;
  size_t brace = src.find('{', p);
  *ok = brace != std::string::npos;
  if (!*ok) return src;
  std::string out = src;
  out.insert(brace + 1, "\n  int qz917;");
  return out;
}

/// Rename the first scalar parameter of `proc` throughout the
/// procedure's chunk of the source (word-boundary match).
std::string signatureEdit(const std::string& src, const Program& prog,
                          const ProcDecl& proc, bool* ok) {
  *ok = false;
  const VarDecl* param = nullptr;
  for (const auto& pd : proc.params)
    if (!pd->isArray()) {
      param = pd.get();
      break;
    }
  if (!param) return src;
  std::string pname(prog.interner.str(proc.name));
  std::string vname(prog.interner.str(param->name));
  size_t begin = src.find("proc " + pname);
  if (begin == std::string::npos) return src;
  size_t end = src.find("\nproc ", begin);
  if (end == std::string::npos) end = src.size();
  std::string chunk = src.substr(begin, end - begin);
  std::regex word("\\b" + vname + "\\b");
  std::string renamed = std::regex_replace(chunk, word, vname + "_r9");
  if (renamed == chunk) return src;
  *ok = true;
  return src.substr(0, begin) + renamed + src.substr(end);
}

class CorpusIncremental : public ::testing::TestWithParam<int> {};

TEST_P(CorpusIncremental, EditClassesMatchColdRun) {
  const CorpusEntry& e = corpus()[static_cast<size_t>(GetParam())];
  const std::string original = instantiate(e);
  auto cp = compile(original);
  ASSERT_TRUE(cp);

  // Comment-only edit: canonical text of every procedure is unchanged,
  // so nothing may be re-analyzed.
  {
    std::string commented = "// incremental-test comment edit\n" + original;
    store::SummaryStore st("");
    DiagEngine d1;
    auto seed = ipa::compileSourceIncremental(original, d1,
                                              BudgetLimits::defaults(), st);
    ASSERT_TRUE(seed.has_value()) << e.name;
    DiagEngine d2;
    ipa::IncrementalInfo info;
    auto inc = ipa::compileSourceIncremental(commented, d2,
                                             BudgetLimits::defaults(), st,
                                             &info);
    ASSERT_TRUE(inc.has_value()) << e.name;
    EXPECT_EQ(info.procs_replayed, info.procs_total) << e.name;
    EXPECT_TRUE(info.dirty.empty()) << e.name;
    DiagEngine d3;
    auto cold = compileSource(commented, d3);
    ASSERT_TRUE(cold.has_value());
    EXPECT_EQ(planSignature(*inc), planSignature(*cold)) << e.name;
  }

  // Body edit of every procedure in turn: the dirty set must be that
  // procedure plus its transitive callers, nothing more.
  for (const auto& proc : cp->program->procs) {
    std::string pname(cp->interner().str(proc->name));
    bool ok = false;
    std::string edited = bodyEdit(original, pname, &ok);
    ASSERT_TRUE(ok) << e.name << "/" << pname;
    checkEdit(original, edited, e.name + "/body-edit/" + pname);
  }

  // Signature edit (parameter rename) where a procedure has a scalar
  // parameter to rename.
  for (const auto& proc : cp->program->procs) {
    bool ok = false;
    std::string edited = signatureEdit(original, *cp->program, *proc, &ok);
    if (!ok) continue;
    checkEdit(original, edited,
              e.name + "/signature-edit/" +
                  std::string(cp->interner().str(proc->name)));
  }
}

// The store holds plans from before the refinement stage (Doacross
// upgrade, VRA promotion), so whether value ranges were on when a
// record was written cannot leak into a replay: a store seeded with
// VRA on replays in full under VRA off, byte-identical to a cold
// compile under VRA off, and the reverse.
TEST_P(CorpusIncremental, ReplayIsByteIdenticalAcrossTheVraKnob) {
  const CorpusEntry& e = corpus()[static_cast<size_t>(GetParam())];
  const std::string source = instantiate(e);
  struct RestoreVra {
    ~RestoreVra() { vra::clearVraEnabledOverride(); }
  } restore;
  for (bool seed_vra : {true, false}) {
    SCOPED_TRACE(seed_vra ? "seeded with VRA on" : "seeded with VRA off");
    store::SummaryStore st("");
    vra::setVraEnabled(seed_vra);
    DiagEngine d1;
    auto seed = ipa::compileSourceIncremental(source, d1,
                                              BudgetLimits::defaults(), st);
    ASSERT_TRUE(seed.has_value()) << d1.dump();

    vra::setVraEnabled(!seed_vra);
    DiagEngine d2;
    ipa::IncrementalInfo info;
    auto inc = ipa::compileSourceIncremental(source, d2,
                                             BudgetLimits::defaults(), st,
                                             &info);
    ASSERT_TRUE(inc.has_value()) << d2.dump();
    EXPECT_EQ(info.procs_replayed, info.procs_total);
    auto cold = compile(source);
    ASSERT_TRUE(cold);
    EXPECT_EQ(planSignature(*inc), planSignature(*cold));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, CorpusIncremental,
                         ::testing::Range(0, static_cast<int>(
                                                 corpus().size())),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return corpus()[static_cast<size_t>(info.param)]
                               .name;
                         });

}  // namespace
}  // namespace padfa
