// Predicates attached to data-flow values (Section 4 of the paper).
//
// A predicate is an arbitrary boolean combination of comparison atoms over
// program expressions. Unlike prior guarded-analysis work, atoms are NOT
// restricted to a compiler-understood domain: any run-time-evaluable
// expression can appear, which is what enables run-time test derivation.
// Atoms that happen to be affine in integer scalars additionally support
// implication reasoning (and predicate embedding) through the presburger
// domain.
//
// Representation: immutable shared DAG in negation normal form. Atoms are
// canonicalized to {Le, Eq} with a negation flag, so complements are
// detected structurally (a < b  ==  !(b <= a)).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lang/ast.h"
#include "presburger/system.h"
#include "symbolic/vartable.h"

namespace padfa {

enum class PredKind : uint8_t { True, False, Atom, And, Or };
enum class AtomOp : uint8_t { Le, Eq };

class Pred;

struct PredNode {
  PredKind kind;
  // Atom payload (kind == Atom).
  AtomOp op = AtomOp::Le;
  bool negated = false;
  ExprPtr lhs, rhs;  // owned clones
  // Children (kind == And / Or).
  std::vector<Pred> children;
  // Canonical key: structural identity (semantic identity for atoms thanks
  // to canonicalization).
  std::string key;
};

/// Value-semantics handle to an immutable predicate DAG node.
class Pred {
 public:
  /// Default-constructed Pred is `true`.
  Pred();

  static Pred always();
  static Pred never();

  /// Build a predicate from an int-typed MF condition expression
  /// (comparisons, &&, ||, !, or any int expression used as a flag).
  /// The expression is cloned; `interner` is used for canonical keys.
  static Pred fromCondition(const Expr& cond, const Interner& interner);

  /// Atom: lhs op rhs (possibly negated). Clones both sides.
  static Pred atom(AtomOp op, const Expr& lhs, const Expr& rhs, bool negated,
                   const Interner& interner);

  /// A predicate asserting `e >= 0` for an affine LinExpr, rendered
  /// against `vt` (used by predicate extraction). `decls` must be able to
  /// render every variable of `e` back to an expression.
  static Pred fromAffineGE0(const pb::LinExpr& e, const VarTable& vt,
                            const Interner& interner);

  bool isTrue() const { return node_->kind == PredKind::True; }
  bool isFalse() const { return node_->kind == PredKind::False; }
  PredKind kind() const { return node_->kind; }
  const PredNode& node() const { return *node_; }
  const std::string& key() const { return node_->key; }

  friend Pred operator&&(const Pred& a, const Pred& b);
  friend Pred operator||(const Pred& a, const Pred& b);
  Pred operator!() const;

  bool operator==(const Pred& o) const { return key() == o.key(); }

  /// Conservative implication test: returns true only if `*this => q` is
  /// proven (structurally or through the affine domain).
  bool implies(const Pred& q, VarTable& vt) const;

  /// Semantics-preserving cleanup using the affine domain: inside an Or,
  /// drop children implied by another child (keep the weakest); inside an
  /// And, drop children implying another child (keep the strongest).
  /// Applied recursively. Used to tidy derived run-time tests.
  Pred simplify(VarTable& vt) const;

  /// The affine conjunction entailed by this predicate: a System S such
  /// that (*this) => S. Atoms that are not affine contribute nothing.
  /// Used for predicate embedding.
  pb::System affineUpperBound(VarTable& vt) const;

  /// Does the predicate mention any of the given variables?
  bool mentionsAnyOf(const std::vector<const VarDecl*>& vars) const;

  /// Replace every atom that references one of `vars` with `true`
  /// (toTrue, weakening: result is implied by this predicate) or `false`
  /// (strengthening: result implies this predicate). Sound because the
  /// NNF tree is monotone in its atoms. Used to "kill" predicates whose
  /// scalars are overwritten before the point the summary describes.
  Pred weakenAtoms(const std::vector<const VarDecl*>& vars,
                   bool toTrue) const;
  void collectReferencedVars(std::vector<const VarDecl*>& out) const;

  /// Rebuild with variable substitution (formal -> actual translation
  /// across procedure boundaries). Atoms whose variables are all either
  /// substituted or untouched survive; there is no weakening here — use
  /// mentionsAnyOf + explicit weakening for scope kills.
  Pred substitute(const std::function<const Expr*(const VarDecl*)>& subst,
                  const Interner& interner) const;

  /// Evaluate against a scalar environment (run-time test execution).
  /// `eval` must return the numeric value of a scalar expression.
  bool evaluate(const std::function<double(const Expr&)>& eval) const;

  /// Number of atom evaluations an evaluate() call may perform — the
  /// "cost" of the run-time test the paper argues is low.
  size_t atomCount() const;

  std::string str(const Interner& interner) const;

 private:
  explicit Pred(std::shared_ptr<const PredNode> n) : node_(std::move(n)) {}
  static Pred makeCombo(PredKind kind, std::vector<Pred> children);

  std::shared_ptr<const PredNode> node_;
};

/// Affine GE0-form constraints entailed by a single atom, if any.
/// For op Le (lhs <= rhs): rhs - lhs >= 0; negated: lhs - rhs - 1 >= 0.
/// For op Eq: rhs - lhs == 0; negated Eq is disjunctive -> nullopt.
std::optional<pb::Constraint> atomConstraint(const PredNode& atom,
                                             VarTable& vt);

}  // namespace padfa
