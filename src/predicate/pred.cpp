#include "predicate/pred.h"

#include <algorithm>

#include "symbolic/affine.h"

namespace padfa {

namespace {

// Structural key for an expression. Variables are qualified with their
// interner symbol id, local id, and program-wide uid so distinct decls
// with equal spelling never collide — not even across procedures (where
// local ids restart from 0). Collision freedom is what lets Pred treat
// key equality as full structural identity (dedupe, complement
// detection, operator==).
void keyOf(const Expr& e, std::string& out) {
  switch (e.kind) {
    case ExprKind::IntLit:
      out += 'i';
      out += std::to_string(static_cast<const IntLitExpr&>(e).value);
      break;
    case ExprKind::RealLit: {
      char buf[40];
      snprintf(buf, sizeof(buf), "r%a", static_cast<const RealLitExpr&>(e).value);
      out += buf;
      break;
    }
    case ExprKind::VarRef: {
      const auto& v = static_cast<const VarRefExpr&>(e);
      out += 'v';
      out += std::to_string(v.name.id);
      out += '.';
      if (v.decl) {
        out += std::to_string(v.decl->local_id);
        out += '#';
        out += std::to_string(v.decl->uid);
      } else {
        out += '?';
      }
      break;
    }
    case ExprKind::ArrayRef: {
      const auto& a = static_cast<const ArrayRefExpr&>(e);
      out += 'a';
      out += std::to_string(a.name.id);
      if (a.decl) {
        out += '#';
        out += std::to_string(a.decl->uid);
      }
      out += '[';
      for (const auto& idx : a.indices) {
        keyOf(*idx, out);
        out += ',';
      }
      out += ']';
      break;
    }
    case ExprKind::Unary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      out += (u.op == UnOp::Neg) ? "neg(" : "not(";
      keyOf(*u.operand, out);
      out += ')';
      break;
    }
    case ExprKind::Binary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      out += 'b';
      out += std::to_string(static_cast<int>(b.op));
      out += '(';
      keyOf(*b.lhs, out);
      out += ',';
      keyOf(*b.rhs, out);
      out += ')';
      break;
    }
    case ExprKind::Intrinsic: {
      const auto& c = static_cast<const IntrinsicExpr&>(e);
      out += 'f';
      out += std::to_string(static_cast<int>(c.fn));
      out += '(';
      for (const auto& a : c.args) {
        keyOf(*a, out);
        out += ',';
      }
      out += ')';
      break;
    }
  }
}

std::string exprKey(const Expr& e) {
  std::string out;
  keyOf(e, out);
  return out;
}

std::shared_ptr<const PredNode> makeLeaf(PredKind kind) {
  auto n = std::make_shared<PredNode>();
  n->kind = kind;
  n->key = (kind == PredKind::True) ? "T" : "F";
  return n;
}

const std::shared_ptr<const PredNode>& trueNode() {
  static const std::shared_ptr<const PredNode> n = makeLeaf(PredKind::True);
  return n;
}
const std::shared_ptr<const PredNode>& falseNode() {
  static const std::shared_ptr<const PredNode> n = makeLeaf(PredKind::False);
  return n;
}

// Key of an atom with its negation flag flipped.
std::string flipAtomKey(const std::string& key) {
  // Atom keys look like "A!..." (negated) or "A..." (plain).
  if (key.size() > 1 && key[1] == '!') return "A" + key.substr(2);
  return "A!" + key.substr(1);
}

}  // namespace

Pred::Pred() : node_(trueNode()) {}
Pred Pred::always() { return Pred(trueNode()); }
Pred Pred::never() { return Pred(falseNode()); }

Pred Pred::atom(AtomOp op, const Expr& lhs, const Expr& rhs, bool negated,
                const Interner& interner) {
  (void)interner;
  // Constant-fold ground atoms.
  auto lk = tryConstInt(lhs);
  auto rk = tryConstInt(rhs);
  if (lk && rk) {
    bool val = (op == AtomOp::Le) ? (*lk <= *rk) : (*lk == *rk);
    if (negated) val = !val;
    return val ? always() : never();
  }
  auto n = std::make_shared<PredNode>();
  n->kind = PredKind::Atom;
  n->op = op;
  n->negated = negated;
  ExprPtr l = cloneExpr(lhs);
  ExprPtr r = cloneExpr(rhs);
  if (op == AtomOp::Eq) {
    // Eq is symmetric: canonicalize operand order by key.
    if (exprKey(*r) < exprKey(*l)) std::swap(l, r);
  }
  n->lhs = std::move(l);
  n->rhs = std::move(r);
  n->key = std::string("A") + (negated ? "!" : "") +
           (op == AtomOp::Le ? "le(" : "eq(") + exprKey(*n->lhs) + "," +
           exprKey(*n->rhs) + ")";
  return Pred(std::move(n));
}

Pred Pred::fromCondition(const Expr& cond, const Interner& interner) {
  if (auto k = tryConstInt(cond)) return *k != 0 ? always() : never();
  switch (cond.kind) {
    case ExprKind::Unary: {
      const auto& u = static_cast<const UnaryExpr&>(cond);
      if (u.op == UnOp::Not) return !fromCondition(*u.operand, interner);
      break;
    }
    case ExprKind::Binary: {
      const auto& b = static_cast<const BinaryExpr&>(cond);
      switch (b.op) {
        case BinOp::And:
          return fromCondition(*b.lhs, interner) &&
                 fromCondition(*b.rhs, interner);
        case BinOp::Or:
          return fromCondition(*b.lhs, interner) ||
                 fromCondition(*b.rhs, interner);
        case BinOp::Le:
          return atom(AtomOp::Le, *b.lhs, *b.rhs, false, interner);
        case BinOp::Lt:  // a < b  ==  !(b <= a)
          return atom(AtomOp::Le, *b.rhs, *b.lhs, true, interner);
        case BinOp::Ge:
          return atom(AtomOp::Le, *b.rhs, *b.lhs, false, interner);
        case BinOp::Gt:
          return atom(AtomOp::Le, *b.lhs, *b.rhs, true, interner);
        case BinOp::Eq:
          return atom(AtomOp::Eq, *b.lhs, *b.rhs, false, interner);
        case BinOp::Ne:
          return atom(AtomOp::Eq, *b.lhs, *b.rhs, true, interner);
        default:
          break;
      }
      break;
    }
    default:
      break;
  }
  // Fallback: any int expression used as a flag means `cond != 0`.
  IntLitExpr zero(0);
  zero.type = Type::Int;
  return atom(AtomOp::Eq, cond, zero, /*negated=*/true, interner);
}

std::optional<pb::Constraint> atomConstraint(const PredNode& a, VarTable& vt) {
  if (a.kind != PredKind::Atom) return std::nullopt;
  if (a.lhs->type != Type::Int || a.rhs->type != Type::Int)
    return std::nullopt;
  auto l = tryAffine(*a.lhs, vt);
  auto r = tryAffine(*a.rhs, vt);
  if (!l || !r) return std::nullopt;
  if (a.op == AtomOp::Le) {
    if (!a.negated) return pb::Constraint::ge0(*r - *l);  // r - l >= 0
    // !(l <= r)  ==  l - r - 1 >= 0
    pb::LinExpr e = *l - *r;
    e.setConstant(e.constant() - 1);
    return pb::Constraint::ge0(std::move(e));
  }
  if (!a.negated) return pb::Constraint::eq0(*r - *l);
  return std::nullopt;  // negated equality is disjunctive
}

Pred Pred::makeCombo(PredKind kind, std::vector<Pred> children) {
  const bool isAnd = kind == PredKind::And;
  // Flatten, drop identities, detect annihilators.
  std::vector<Pred> flat;
  for (auto& c : children) {
    if (isAnd ? c.isFalse() : c.isTrue()) return isAnd ? never() : always();
    if (isAnd ? c.isTrue() : c.isFalse()) continue;
    if (c.kind() == kind) {
      for (const auto& gc : c.node().children) flat.push_back(gc);
    } else {
      flat.push_back(std::move(c));
    }
  }
  // Dedupe by key; detect complementary atoms.
  std::sort(flat.begin(), flat.end(),
            [](const Pred& a, const Pred& b) { return a.key() < b.key(); });
  flat.erase(std::unique(flat.begin(), flat.end(),
                         [](const Pred& a, const Pred& b) {
                           return a.key() == b.key();
                         }),
             flat.end());
  for (const auto& c : flat) {
    if (c.kind() != PredKind::Atom) continue;
    std::string comp = flipAtomKey(c.key());
    for (const auto& d : flat) {
      if (d.key() == comp) return isAnd ? never() : always();
    }
  }
  if (flat.empty()) return isAnd ? always() : never();
  if (flat.size() == 1) return flat[0];
  auto n = std::make_shared<PredNode>();
  n->kind = kind;
  n->key = isAnd ? "(&" : "(|";
  for (const auto& c : flat) {
    n->key += c.key();
    n->key += ';';
  }
  n->key += ')';
  n->children = std::move(flat);
  return Pred(std::move(n));
}

Pred operator&&(const Pred& a, const Pred& b) {
  return Pred::makeCombo(PredKind::And, {a, b});
}

Pred operator||(const Pred& a, const Pred& b) {
  return Pred::makeCombo(PredKind::Or, {a, b});
}

Pred Pred::operator!() const {
  switch (node_->kind) {
    case PredKind::True: return never();
    case PredKind::False: return always();
    case PredKind::Atom: {
      auto n = std::make_shared<PredNode>();
      n->kind = PredKind::Atom;
      n->op = node_->op;
      n->negated = !node_->negated;
      n->lhs = cloneExpr(*node_->lhs);
      n->rhs = cloneExpr(*node_->rhs);
      n->key = flipAtomKey(node_->key);
      return Pred(std::move(n));
    }
    case PredKind::And:
    case PredKind::Or: {
      std::vector<Pred> negs;
      negs.reserve(node_->children.size());
      for (const auto& c : node_->children) negs.push_back(!c);
      return makeCombo(
          node_->kind == PredKind::And ? PredKind::Or : PredKind::And,
          std::move(negs));
    }
  }
  return always();
}

pb::System Pred::affineUpperBound(VarTable& vt) const {
  pb::System sys;
  switch (node_->kind) {
    case PredKind::True:
    case PredKind::Or:  // disjunctions entail nothing convex (conservative)
      break;
    case PredKind::False:
      // Entails anything; return an infeasible system.
      sys.addGE0(pb::LinExpr(-1));
      break;
    case PredKind::Atom:
      if (auto c = atomConstraint(*node_, vt)) sys.add(std::move(*c));
      break;
    case PredKind::And:
      for (const auto& c : node_->children) {
        pb::System child = c.affineUpperBound(vt);
        sys.conjoin(child);
      }
      break;
  }
  return sys;
}

bool Pred::implies(const Pred& q, VarTable& vt) const {
  if (q.isTrue() || isFalse()) return true;
  if (key() == q.key()) return true;
  if (q.isFalse()) return false;

  if (q.kind() == PredKind::And) {
    for (const auto& c : q.node().children)
      if (!implies(c, vt)) return false;
    return true;
  }
  if (q.kind() == PredKind::Or) {
    for (const auto& c : q.node().children)
      if (implies(c, vt)) return true;
    // fall through to structural / affine checks below
  }

  // Structural: q appears among our conjuncts.
  if (node_->kind == PredKind::And) {
    for (const auto& c : node_->children)
      if (c.key() == q.key()) return true;
  }

  // Affine: this => S (affine upper bound); if S && !q is infeasible,
  // then this => q.
  if (q.kind() == PredKind::Atom) {
    pb::System sys = affineUpperBound(vt);
    const PredNode& qa = q.node();
    Pred qneg = !q;
    if (qa.op == AtomOp::Eq && !qa.negated) {
      // !q = (l != r): check both strict sides infeasible with sys.
      auto l = tryAffine(*qa.lhs, vt);
      auto r = tryAffine(*qa.rhs, vt);
      if (!l || !r) return false;
      pb::System s1 = sys;
      pb::LinExpr d = *r - *l;
      pb::LinExpr gt = d;
      gt.setConstant(gt.constant() - 1);  // d >= 1
      s1.addGE0(std::move(gt));
      pb::System s2 = sys;
      pb::LinExpr lt = d.negated();
      lt.setConstant(lt.constant() - 1);  // -d >= 1
      s2.addGE0(std::move(lt));
      return !s1.feasible() && !s2.feasible();
    }
    if (auto nc = atomConstraint(qneg.node(), vt)) {
      pb::System s = sys;
      s.add(std::move(*nc));
      return !s.feasible();
    }
  }
  return false;
}

bool Pred::mentionsAnyOf(const std::vector<const VarDecl*>& vars) const {
  std::vector<const VarDecl*> used;
  collectReferencedVars(used);
  for (const VarDecl* u : used)
    for (const VarDecl* v : vars)
      if (u == v) return true;
  return false;
}

Pred Pred::weakenAtoms(const std::vector<const VarDecl*>& vars,
                       bool toTrue) const {
  switch (node_->kind) {
    case PredKind::True:
    case PredKind::False:
      return *this;
    case PredKind::Atom: {
      std::vector<const VarDecl*> used;
      collectVars(*node_->lhs, used);
      collectVars(*node_->rhs, used);
      for (const VarDecl* u : used)
        for (const VarDecl* v : vars)
          if (u == v) return toTrue ? always() : never();
      return *this;
    }
    case PredKind::And:
    case PredKind::Or: {
      Pred acc =
          node_->kind == PredKind::And ? Pred::always() : Pred::never();
      for (const auto& c : node_->children) {
        Pred wc = c.weakenAtoms(vars, toTrue);
        acc = node_->kind == PredKind::And ? (acc && wc) : (acc || wc);
      }
      return acc;
    }
  }
  return *this;
}

void Pred::collectReferencedVars(std::vector<const VarDecl*>& out) const {
  switch (node_->kind) {
    case PredKind::True:
    case PredKind::False:
      break;
    case PredKind::Atom:
      collectVars(*node_->lhs, out);
      collectVars(*node_->rhs, out);
      break;
    case PredKind::And:
    case PredKind::Or:
      for (const auto& c : node_->children) c.collectReferencedVars(out);
      break;
  }
}

Pred Pred::substitute(
    const std::function<const Expr*(const VarDecl*)>& subst,
    const Interner& interner) const {
  switch (node_->kind) {
    case PredKind::True:
    case PredKind::False:
      return *this;
    case PredKind::Atom: {
      ExprPtr l = cloneExprSubst(*node_->lhs, subst);
      ExprPtr r = cloneExprSubst(*node_->rhs, subst);
      return atom(node_->op, *l, *r, node_->negated, interner);
    }
    case PredKind::And:
    case PredKind::Or: {
      Pred acc =
          node_->kind == PredKind::And ? Pred::always() : Pred::never();
      for (const auto& c : node_->children) {
        Pred sc = c.substitute(subst, interner);
        acc = node_->kind == PredKind::And ? (acc && sc) : (acc || sc);
      }
      return acc;
    }
  }
  return *this;
}

bool Pred::evaluate(const std::function<double(const Expr&)>& eval) const {
  switch (node_->kind) {
    case PredKind::True: return true;
    case PredKind::False: return false;
    case PredKind::Atom: {
      double l = eval(*node_->lhs);
      double r = eval(*node_->rhs);
      bool v = node_->op == AtomOp::Le ? (l <= r) : (l == r);
      return node_->negated ? !v : v;
    }
    case PredKind::And:
      for (const auto& c : node_->children)
        if (!c.evaluate(eval)) return false;
      return true;
    case PredKind::Or:
      for (const auto& c : node_->children)
        if (c.evaluate(eval)) return true;
      return false;
  }
  return false;
}

size_t Pred::atomCount() const {
  switch (node_->kind) {
    case PredKind::True:
    case PredKind::False:
      return 0;
    case PredKind::Atom:
      return 1;
    case PredKind::And:
    case PredKind::Or: {
      size_t n = 0;
      for (const auto& c : node_->children) n += c.atomCount();
      return n;
    }
  }
  return 0;
}

Pred Pred::simplify(VarTable& vt) const {
  if (node_->kind != PredKind::And && node_->kind != PredKind::Or)
    return *this;
  const bool is_and = node_->kind == PredKind::And;
  std::vector<Pred> kids;
  kids.reserve(node_->children.size());
  for (const auto& c : node_->children) kids.push_back(c.simplify(vt));
  // In an Or: if a => b, a is redundant (b already covers it).
  // In an And: if a => b, b is redundant (a is at least as strong).
  std::vector<bool> dead(kids.size(), false);
  for (size_t i = 0; i < kids.size(); ++i) {
    if (dead[i]) continue;
    for (size_t j = 0; j < kids.size(); ++j) {
      if (i == j || dead[j]) continue;
      if (kids[i].implies(kids[j], vt)) {
        if (is_and)
          dead[j] = true;
        else
          dead[i] = true;
        if (dead[i]) break;
      }
    }
  }
  Pred acc = is_and ? always() : never();
  for (size_t i = 0; i < kids.size(); ++i) {
    if (dead[i]) continue;
    acc = is_and ? (acc && kids[i]) : (acc || kids[i]);
  }
  return acc;
}

std::string Pred::str(const Interner& interner) const {
  switch (node_->kind) {
    case PredKind::True: return "true";
    case PredKind::False: return "false";
    case PredKind::Atom: {
      std::string l = exprToString(*node_->lhs, interner);
      std::string r = exprToString(*node_->rhs, interner);
      if (node_->op == AtomOp::Le)
        return node_->negated ? (l + " > " + r) : (l + " <= " + r);
      return node_->negated ? (l + " != " + r) : (l + " == " + r);
    }
    case PredKind::And:
    case PredKind::Or: {
      std::string sep = node_->kind == PredKind::And ? " && " : " || ";
      std::string out = "(";
      for (size_t i = 0; i < node_->children.size(); ++i) {
        if (i) out += sep;
        out += node_->children[i].str(interner);
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

Pred Pred::fromAffineGE0(const pb::LinExpr& e, const VarTable& vt,
                         const Interner& interner) {
  // Render sum(c_i * v_i) + k >= 0 as an MF expression tree "0 <= expr".
  // Every variable must map back to a program scalar decl.
  ExprPtr acc;
  auto addPiece = [&acc](ExprPtr piece) {
    if (!acc) {
      acc = std::move(piece);
    } else {
      auto b = std::make_unique<BinaryExpr>(BinOp::Add, std::move(acc),
                                            std::move(piece));
      b->type = Type::Int;
      acc = std::move(b);
    }
  };
  for (const auto& [v, c] : e.terms()) {
    const VarDecl* d = vt.declOf(v);
    if (!d) {
      // Cannot render synthetic variables; callers should have projected
      // them away. Produce the trivially-true predicate to stay sound on
      // the "necessary condition" side? No: this function promises the
      // exact predicate. Return `always()` would be wrong; use a dead
      // atom that always evaluates false-safe. We choose: give up ->
      // represent as `true` is unsound for extraction use. Hence assert
      // via never(): see header contract — callers must pre-project.
      return never();
    }
    auto ref = std::make_unique<VarRefExpr>(d->name);
    ref->decl = const_cast<VarDecl*>(d);
    ref->type = Type::Int;
    if (c == 1) {
      addPiece(std::move(ref));
    } else {
      auto lit = std::make_unique<IntLitExpr>(c);
      lit->type = Type::Int;
      auto mul = std::make_unique<BinaryExpr>(BinOp::Mul, std::move(lit),
                                              std::move(ref));
      mul->type = Type::Int;
      addPiece(std::move(mul));
    }
  }
  if (e.constant() != 0 || !acc) {
    auto lit = std::make_unique<IntLitExpr>(e.constant());
    lit->type = Type::Int;
    addPiece(std::move(lit));
  }
  IntLitExpr zero(0);
  zero.type = Type::Int;
  return atom(AtomOp::Le, zero, *acc, false, interner);
}

}  // namespace padfa
