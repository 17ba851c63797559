#include "symbolic/vartable.h"

namespace padfa {

VarTable::VarTable(const Interner* interner) : interner_(interner) {
  for (size_t k = 0; k < kMaxRank; ++k)
    entries_.push_back({VarKind::Dim, "@d" + std::to_string(k), nullptr});
}

pb::VarId VarTable::idFor(const VarDecl* decl) {
  auto it = by_decl_.find(decl);
  if (it != by_decl_.end()) return it->second;
  pb::VarId id = static_cast<pb::VarId>(entries_.size());
  VarKind kind = decl->is_loop_index ? VarKind::Index : VarKind::Param;
  std::string name =
      interner_ ? std::string(interner_->str(decl->name)) : std::string();
  entries_.push_back({kind, std::move(name), decl});
  by_decl_[decl] = id;
  return id;
}

pb::VarId VarTable::fresh(VarKind kind, const std::string& name) {
  pb::VarId id = static_cast<pb::VarId>(entries_.size());
  entries_.push_back({kind, name, nullptr});
  return id;
}

void VarTable::setAlias(pb::VarId v, pb::LinExpr repl) {
  aliases_[v] = std::move(repl);
}

const pb::LinExpr* VarTable::aliasOf(pb::VarId v) const {
  auto it = aliases_.find(v);
  return it == aliases_.end() ? nullptr : &it->second;
}

std::function<std::string(pb::VarId)> VarTable::namer() const {
  return [this](pb::VarId v) -> std::string {
    if (v >= entries_.size()) return "v" + std::to_string(v);
    const Entry& e = entries_[v];
    if (!e.name.empty()) return e.name;
    if (e.decl) return "sym" + std::to_string(v);
    return "v" + std::to_string(v);
  };
}

}  // namespace padfa
