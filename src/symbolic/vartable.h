// VarTable: the bridge between program variables (AST VarDecls) and the
// integer variables of the presburger domain.
//
// Variable kinds mirror the roles in SUIF's array data-flow analysis:
//  * Dim     — placeholder for one subscript dimension of an array section
//              ("the section covers all points (d0, d1, ...) such that ...")
//  * Index   — an enclosing loop index; becomes existentially projected
//              when a summary is promoted past its loop, and instantiated
//              as i1/i2 pairs for cross-iteration dependence systems.
//  * Param   — a symbolic scalar (procedure parameter or local) whose value
//              at region entry parameterizes the section.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "lang/ast.h"
#include "presburger/linexpr.h"
#include "presburger/var.h"

namespace padfa {

enum class VarKind : uint8_t { Dim, Index, Param };

class VarTable {
 public:
  static constexpr size_t kMaxRank = 4;

  /// If `interner` is supplied, program scalars get readable names in
  /// str() dumps.
  explicit VarTable(const Interner* interner = nullptr);

  /// The VarId standing for subscript dimension `k` (k < kMaxRank).
  pb::VarId dim(size_t k) const { return static_cast<pb::VarId>(k); }
  bool isDim(pb::VarId v) const { return v < kMaxRank; }

  /// Id for a program scalar; created on first use. Loop indices get kind
  /// Index, other scalars Param.
  pb::VarId idFor(const VarDecl* decl);

  /// Whether this decl has been assigned an id already.
  bool hasId(const VarDecl* decl) const { return by_decl_.count(decl) > 0; }

  /// A fresh anonymous variable (used for iteration instances i1/i2 and
  /// translation temporaries).
  pb::VarId fresh(VarKind kind, const std::string& name);

  VarKind kindOf(pb::VarId v) const { return entries_.at(v).kind; }
  const std::string& nameOf(pb::VarId v) const { return entries_.at(v).name; }
  /// The program decl behind a Param/Index id, or null for synthetic vars.
  const VarDecl* declOf(pb::VarId v) const { return entries_.at(v).decl; }

  size_t size() const { return entries_.size(); }

  /// Install an affine alias for a single-assignment scalar: wherever the
  /// scalar would appear in an affine form, `repl` (over non-aliased ids)
  /// is inlined instead. This is the light forward-substitution pass that
  /// keeps sections expressed over procedure parameters.
  void setAlias(pb::VarId v, pb::LinExpr repl);
  const pb::LinExpr* aliasOf(pb::VarId v) const;

  /// Convenience name function for Set/System::str.
  std::function<std::string(pb::VarId)> namer() const;

 private:
  struct Entry {
    VarKind kind;
    std::string name;
    const VarDecl* decl = nullptr;
  };
  const Interner* interner_ = nullptr;
  std::vector<Entry> entries_;
  std::unordered_map<const VarDecl*, pb::VarId> by_decl_;
  std::unordered_map<pb::VarId, pb::LinExpr> aliases_;
};

}  // namespace padfa
