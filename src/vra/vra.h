// Predicate-aware value-range analysis over MF integer scalars
// (DESIGN.md §15).
//
// A flow-sensitive abstract interpretation computing an interval
// (vra/range.h) for every int scalar at every statement. Loops are
// solved by fixpoint with widening at the loop head and one narrowing
// pass on stabilization; branch and loop-bound conditions refine the
// environment through the same `Pred` NNF atoms the data-flow analysis
// predicates use, so facts like "inside `if (d == n)` we have d = [N,N]"
// fall out of the shared machinery.
//
// Interprocedural treatment is top-down over the (acyclic) call graph:
// a callee's int-scalar parameter starts at the join of every call
// site's argument interval. MF passes scalars by value, so calls never
// clobber caller scalars.
//
// Clients: static runtime-test discharge (dataflow/vra_promote.h), the
// Doacross profitability guard (dataflow/doacross.h), and the
// range-sharpened MF-lint checkers (audit/lint.h). Nothing here is
// serialized — ranges are recomputed from the AST on demand, which is
// what keeps warm (store-replayed) and cold plans identical.
//
// The whole subsystem is disableable via PADFA_NO_VRA (any non-empty
// value); setVraEnabled() overrides the environment programmatically for
// tests. With VRA off, plans are bit-identical to the pre-VRA engine.
#pragma once

#include <map>
#include <memory>

#include "lang/ast.h"
#include "predicate/pred.h"
#include "vra/range.h"

namespace padfa::vra {

/// Whether the value-range analysis is active. Defaults to the
/// environment (PADFA_NO_VRA unset/empty => enabled); a setVraEnabled()
/// call takes precedence for the rest of the process.
bool vraEnabled();
void setVraEnabled(bool enabled);
/// Drop any setVraEnabled() override, reverting to the environment.
void clearVraEnabledOverride();

/// Three-valued proof outcome for predicate queries.
enum class Proof : uint8_t { Unknown, True, False };

/// The scalar environment at one program point: interval per int scalar.
/// Absent declarations are top (any value); `reachable == false` marks a
/// point no execution reaches (bottom).
struct RangeEnv {
  bool reachable = true;
  std::map<const VarDecl*, Range> vals;  // only non-top entries are kept

  Range get(const VarDecl* d) const {
    if (!reachable) return Range::bottom();
    auto it = vals.find(d);
    return it == vals.end() ? Range::top() : it->second;
  }
  void set(const VarDecl* d, const Range& r) {
    if (r.isTop())
      vals.erase(d);
    else
      vals[d] = r;
  }
};

class RangeAnalysis {
 public:
  /// Runs the whole-program fixpoint immediately (cheap: MF programs are
  /// small and the lattice is shallow). When vraEnabled() is false the
  /// constructor does nothing and every query degrades to top/Unknown.
  explicit RangeAnalysis(const Program& program);

  bool enabled() const { return enabled_; }

  /// Environment at statement entry (before the statement executes; for
  /// blocks, before the hoisted declarations initialize).
  const RangeEnv& envAt(const Stmt* s) const;

  /// Interval of `d` at entry to `s`. Top when disabled or unrecorded.
  Range rangeAt(const Stmt* s, const VarDecl* d) const;

  /// Interval of an expression evaluated in the statement-entry
  /// environment of `s`. Real-typed expressions are top.
  Range evalAt(const Stmt* s, const Expr& e) const;

  /// Try to prove the predicate always-true or always-false in the
  /// environment at entry to `s`. Unknown when disabled, when the
  /// predicate mentions reals, or when the intervals don't decide it.
  Proof provePred(const Stmt* s, const Pred& p) const;
  bool proveTrue(const Stmt* s, const Pred& p) const {
    return provePred(s, p) == Proof::True;
  }
  bool proveFalse(const Stmt* s, const Pred& p) const {
    return provePred(s, p) == Proof::False;
  }

  /// Evaluate in an explicit environment (exposed for tests).
  static Range evalIn(const RangeEnv& env, const Expr& e);
  static Proof proveIn(const RangeEnv& env, const Pred& p);

 private:
  RangeEnv transferBlock(const BlockStmt& block, RangeEnv env, bool record);
  RangeEnv transferStmt(const Stmt& stmt, RangeEnv env, bool record);
  RangeEnv transferFor(const ForStmt& loop, RangeEnv env, bool record);

  bool enabled_ = false;
  const Program* program_ = nullptr;
  std::map<const Stmt*, RangeEnv> at_;
  /// Join of argument intervals per callee parameter, accumulated while
  /// walking callers (top-down order guarantees completeness).
  std::map<const VarDecl*, Range> param_in_;
  std::map<const ProcDecl*, bool> proc_done_;
  static const RangeEnv kTopEnv;
};

/// Refine `env` with the knowledge that `p` holds (branch entry, loop
/// body entry). Sound: the result over-approximates every state
/// satisfying `p` that `env` admits. Exposed for tests.
RangeEnv refineEnv(const RangeEnv& env, const Pred& p);

}  // namespace padfa::vra
