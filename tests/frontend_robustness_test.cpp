// Frontend robustness: every malformed input must produce a diagnostic
// (never a crash, never a silent acceptance), and random garbage must be
// rejected cleanly.
#include <gtest/gtest.h>

#include "audit/lint.h"
#include "audit/plan_audit.h"
#include "corpus/corpus.h"
#include "driver/padfa.h"
#include "driver/plan_signature.h"
#include "lang/parser.h"
#include "lang/sema.h"
#include "store/snapshot.h"
#include "support/hash.h"

namespace padfa {
namespace {

// Returns true iff the source was cleanly REJECTED with >= 1 error.
bool rejected(std::string_view src) {
  DiagEngine diags;
  auto p = parseProgram(src, diags);
  if (!p) return diags.hasErrors();
  bool ok = analyze(*p, diags);
  return !ok && diags.hasErrors();
}

bool accepted(std::string_view src) {
  DiagEngine diags;
  auto p = parseProgram(src, diags);
  return p && analyze(*p, diags);
}

TEST(Robustness, MalformedTopLevel) {
  EXPECT_TRUE(rejected("int x;"));
  EXPECT_TRUE(rejected("proc"));
  EXPECT_TRUE(rejected("proc main"));
  EXPECT_TRUE(rejected("proc main("));
  EXPECT_TRUE(rejected("proc main() {"));
  EXPECT_TRUE(rejected("proc main() } {"));
  EXPECT_TRUE(rejected("proc 123() { }"));
}

TEST(Robustness, MalformedStatements) {
  EXPECT_TRUE(rejected("proc main() { x }"));
  EXPECT_TRUE(rejected("proc main() { int x; x = ; }"));
  EXPECT_TRUE(rejected("proc main() { int x; x = 1 }"));  // missing ';'
  EXPECT_TRUE(rejected("proc main() { if x > 1 { } }"));
  EXPECT_TRUE(rejected("proc main() { for = 0 to 3 { } }"));
  EXPECT_TRUE(rejected("proc main() { for i = 0 3 { } }"));
  EXPECT_TRUE(rejected("proc main() { return }"));
}

TEST(Robustness, MalformedExpressions) {
  EXPECT_TRUE(rejected("proc main() { int x; x = 1 + ; }"));
  EXPECT_TRUE(rejected("proc main() { int x; x = (1 + 2; }"));
  EXPECT_TRUE(rejected("proc main() { int x; x = 1 ++ 2; }"));
  EXPECT_TRUE(rejected("proc main() { real a[4]; a[1 = 0.0; }"));
  EXPECT_TRUE(rejected("proc main() { int x; x = min(1); }"));
  EXPECT_TRUE(rejected("proc main() { int x; x = noise(); }"));
}

TEST(Robustness, SemanticRejections) {
  EXPECT_TRUE(rejected("proc main() { sink(); }"));
  EXPECT_TRUE(rejected("proc main() { sink(1, 2); }"));
  EXPECT_TRUE(rejected("proc f(int a) { } proc main() { f(); }"));
  EXPECT_TRUE(rejected("proc f(int a) { } proc main() { f(1, 2); }"));
  EXPECT_TRUE(rejected(
      "proc f(real v[4]) { } proc main() { int x; x = 0; f(x); }"));
  EXPECT_TRUE(rejected(
      "proc f(int x) { } proc main() { real a[4]; f(a); }"));
  EXPECT_TRUE(rejected("proc main() { real a[2]; real a2[2]; a2[0] = a; }"));
  EXPECT_TRUE(rejected("proc f() { } proc f() { } proc main() { }"));
  EXPECT_TRUE(rejected("proc main() { real x[3.5]; }"));
}

TEST(Robustness, ValidEdgeCasesAccepted) {
  EXPECT_TRUE(accepted("proc main() { }"));
  EXPECT_TRUE(accepted("proc main() { return; }"));
  EXPECT_TRUE(accepted("proc main() { for i = 5 to 4 { } }"));
  EXPECT_TRUE(accepted(
      "proc main() { real a[1]; a[0] = 1.0e3; sink(a[0]); }"));
  EXPECT_TRUE(accepted("proc main() { int x; x = - - 3; sink(x); }"));
  EXPECT_TRUE(accepted("proc helper() { } proc main() { helper(); }"));
}

// Fuzz-ish: random token soup never crashes the frontend; it is either
// (rarely) a valid program or rejected with a diagnostic.
TEST(Robustness, RandomTokenSoupNeverCrashes) {
  const char* tokens[] = {"proc", "main", "(", ")", "{", "}", "int",
                          "real", "for", "if", "else", "to", "step", "x",
                          "y", "1", "2.5", "=", "+", "-", "*", "/", "[",
                          "]", ";", ",", "<", ">", "==", "&&", "||", "!"};
  uint64_t state = 12345;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 300; ++trial) {
    std::string src = "proc main() { ";
    int n = 3 + static_cast<int>(next() % 40);
    for (int i = 0; i < n; ++i) {
      src += tokens[next() % (sizeof(tokens) / sizeof(tokens[0]))];
      src += ' ';
    }
    src += " }";
    DiagEngine diags;
    auto p = parseProgram(src, diags);
    if (p) analyze(*p, diags);  // must not crash either way
  }
  SUCCEED();
}

// Deterministic mutation fuzz over the real corpus sources. Unlike the
// token soup above (which is almost-always-invalid from the start), these
// inputs are valid programs with a single localized defect — the shape a
// user actually produces — so they exercise recovery paths deep inside
// the parser and sema. Contract: never crash; if the parse fails, there
// is a diagnostic; if the mutant survives sema, the downstream pipeline
// (analysis, MF-lint, plan auditor) must also run without crashing and
// the auditor must certify every plan the analysis emits for it.
class MutatedCorpus : public ::testing::TestWithParam<int> {
 protected:
  uint64_t state_ = 0;
  uint64_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  size_t pick(size_t n) { return static_cast<size_t>(next() % n); }

  void checkNoCrash(const std::string& src) {
    DiagEngine diags;
    auto p = parseProgram(src, diags);
    if (!p) {
      EXPECT_TRUE(diags.hasErrors())
          << "parse failed without emitting a diagnostic";
      return;
    }
    if (!analyze(*p, diags)) return;  // cleanly rejected by sema
    // The mutant is a *valid* program, so the whole verification pipeline
    // must hold on it: planner, MF-lint, and the plan auditor run without
    // crashing, and the auditor must not refute any plan the analysis
    // produced — a mutation that tricks the analysis into an unsound
    // parallel plan is exactly the bug this fuzz exists to catch.
    DiagEngine cdiags;
    auto cp = compileSource(src, cdiags);
    ASSERT_TRUE(cp.has_value())
        << "sema accepted a program the driver rejects:\n" << cdiags.dump();
    DiagEngine vdiags;
    runLint(*cp->program, cp->loops, vdiags);
    AuditReport base_rep = auditPlans(*cp->program, cp->base, vdiags);
    AuditReport pred_rep = auditPlans(*cp->program, cp->pred, vdiags);
    EXPECT_TRUE(base_rep.clean() && pred_rep.clean())
        << "auditor refuted a plan on a valid mutant:\n" << vdiags.dump();
    EXPECT_EQ(vdiags.countWithId("audit-unsound"), 0u) << vdiags.dump();
  }

  // Erase the whitespace-delimited token containing position `at`.
  static std::string deleteToken(std::string src, size_t at) {
    auto isws = [](char c) { return c == ' ' || c == '\n' || c == '\t'; };
    size_t b = at, e = at;
    while (b > 0 && !isws(src[b - 1])) --b;
    while (e < src.size() && !isws(src[e])) ++e;
    src.erase(b, e - b);
    return src;
  }
};

TEST_P(MutatedCorpus, TruncationNeverCrashes) {
  const CorpusEntry& entry = corpus()[static_cast<size_t>(GetParam())];
  SCOPED_TRACE(entry.name);
  std::string source = instantiate(entry);
  state_ = static_cast<uint64_t>(GetParam()) * 2654435761u + 17;
  for (int trial = 0; trial < 8; ++trial)
    checkNoCrash(source.substr(0, pick(source.size())));
  checkNoCrash("");  // degenerate truncation
}

TEST_P(MutatedCorpus, TokenDeletionNeverCrashes) {
  const CorpusEntry& entry = corpus()[static_cast<size_t>(GetParam())];
  SCOPED_TRACE(entry.name);
  std::string source = instantiate(entry);
  state_ = static_cast<uint64_t>(GetParam()) * 2654435761u + 29;
  for (int trial = 0; trial < 8; ++trial)
    checkNoCrash(deleteToken(source, pick(source.size())));
}

TEST_P(MutatedCorpus, ByteFlipsNeverCrash) {
  const CorpusEntry& entry = corpus()[static_cast<size_t>(GetParam())];
  SCOPED_TRACE(entry.name);
  std::string source = instantiate(entry);
  state_ = static_cast<uint64_t>(GetParam()) * 2654435761u + 43;
  // Includes non-printable replacements: the lexer must diagnose stray
  // bytes rather than walk past them or crash.
  const char replacements[] = "{}[]();=+-*/<>!&|%#@$\"'\\\x01\x7f\xff";
  for (int trial = 0; trial < 12; ++trial) {
    std::string mutated = source;
    mutated[pick(mutated.size())] =
        replacements[pick(sizeof(replacements) - 1)];
    checkNoCrash(mutated);
  }
}

TEST_P(MutatedCorpus, SnapshotMutationsNeverCrashTheStoreLoader) {
  // Same mutation battery, aimed at the OTHER untrusted-input boundary:
  // the persistent summary store's snapshot decoder. Build a real
  // snapshot from this program's compiled plans, then feed truncated /
  // bit-flipped variants through decodeSnapshot — it must reject cleanly
  // (with a diagnostic) or decode to content that re-encodes to the
  // original bytes; partial or corrupt data must never survive.
  const CorpusEntry& entry = corpus()[static_cast<size_t>(GetParam())];
  SCOPED_TRACE(entry.name);
  std::string source = instantiate(entry);
  DiagEngine diags;
  auto cp = compileSource(source, diags);
  ASSERT_TRUE(cp) << diags.dump();

  store::StoreData data;
  uint64_t hash = contentHash64(source);
  data.responses[{hash, "signature"}] = planSignature(*cp);
  data.responses[{hash, "report"}] = renderPlanReport(*cp);
  data.feasibility["fuzz-key-a"] = 0;
  data.feasibility["fuzz-key-b"] = 1;
  const std::string good = store::encodeSnapshot(data);

  state_ = static_cast<uint64_t>(GetParam()) * 2654435761u + 57;
  for (int trial = 0; trial < 24; ++trial) {
    std::string b = good;
    uint64_t kind = next() % 3;
    if (kind == 0) {
      b.resize(pick(b.size() + 1));
    } else {
      size_t flips = kind == 1 ? 1 : 1 + pick(8);
      for (size_t f = 0; f < flips; ++f)
        b[pick(b.size())] ^= static_cast<char>(1u << pick(8));
    }
    store::StoreData out;
    std::string err;
    if (store::decodeSnapshot(b, out, err)) {
      EXPECT_EQ(store::encodeSnapshot(out), good)
          << "a mutated snapshot decoded to different content";
    } else {
      EXPECT_FALSE(err.empty()) << "rejection without a diagnostic";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, MutatedCorpus, ::testing::Range(0, 30));

TEST(Robustness, DeepNestingParses) {
  std::string src = "proc main() { int x; x = 0;\n";
  for (int i = 0; i < 40; ++i)
    src += "if (x < " + std::to_string(i) + ") {\n";
  src += "x = 1;\n";
  for (int i = 0; i < 40; ++i) src += "}\n";
  src += "}";
  EXPECT_TRUE(accepted(src));
}

TEST(Robustness, LongExpressionChains) {
  std::string src = "proc main() { real x; x = 0.0";
  for (int i = 0; i < 300; ++i) src += " + " + std::to_string(i) + ".0";
  src += "; sink(x); }";
  EXPECT_TRUE(accepted(src));
}

}  // namespace
}  // namespace padfa
