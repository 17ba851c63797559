#include "audit/race_oracle.h"

#include <algorithm>

namespace padfa {

namespace {

/// Collect every VarDecl declared inside a block (transitively), i.e.
/// variables whose storage is re-created on each entry.
void collectDeclared(const BlockStmt& block, std::set<const VarDecl*>& out) {
  for (const auto& d : block.decls) out.insert(d.get());
  for (const auto& st : block.stmts) {
    switch (st->kind) {
      case StmtKind::If: {
        const auto& i = static_cast<const IfStmt&>(*st);
        collectDeclared(*i.then_block, out);
        if (i.else_block) collectDeclared(*i.else_block, out);
        break;
      }
      case StmtKind::For:
        collectDeclared(*static_cast<const ForStmt&>(*st).body, out);
        break;
      case StmtKind::Block:
        collectDeclared(static_cast<const BlockStmt&>(*st), out);
        break;
      default:
        break;
    }
  }
}

}  // namespace

RaceOracle::RaceOracle(const Program& program, const AnalysisResult& analysis)
    : interner_(&program.interner) {
  for (const auto& [loop, plan] : analysis.plans) {
    if (plan.status != LoopStatus::Parallel &&
        plan.status != LoopStatus::RuntimeTest &&
        plan.status != LoopStatus::Doacross)
      continue;
    LoopState st;
    st.plan = &plan;
    if (plan.status == LoopStatus::Doacross)
      for (const auto& s : plan.syncs) st.sync_distances.insert(s.distance);
    std::set<const VarDecl*> body_declared;
    collectDeclared(*loop->body, body_declared);
    for (const auto& red : plan.reductions)
      st.reduction_scalars.insert(red.scalar);
    if (plan.proc) {
      for (const VarDecl* d : plan.proc->all_vars) {
        if (d->isArray() || d->is_loop_index) continue;
        if (body_declared.count(d)) continue;  // fresh storage per iter
        st.tracked_scalars.insert(d);
      }
    }
    loops_[loop] = std::move(st);
  }
}

const LoopPlan* RaceOracle::planFor(const ForStmt* loop) const {
  auto it = loops_.find(loop);
  return it == loops_.end() ? nullptr : it->second.plan;
}

void RaceOracle::loopEnter(const ForStmt* loop,
                           std::set<const void*> privatized) {
  auto it = loops_.find(loop);
  if (it == loops_.end()) return;
  LoopState& st = it->second;
  // Each invocation is judged on its own: marks of an earlier invocation
  // fall below the new base and read as "never". Verdict bits keep
  // accumulating across invocations.
  st.base = st.next_base;
  st.cur_iter = -1;
  st.privatized = std::move(privatized);
  ++st.invocations;
  active_.push_back(&st);
}

void RaceOracle::loopIterStart(const ForStmt* loop, int64_t ordinal) {
  auto it = loops_.find(loop);
  if (it == loops_.end()) return;
  LoopState& st = it->second;
  st.cur_iter = ordinal;
  st.next_base = std::max(st.next_base, st.stamp() + 1);
  st.executed = true;
}

void RaceOracle::loopExit(const ForStmt* loop) {
  auto it = loops_.find(loop);
  if (it == loops_.end()) return;
  if (!active_.empty() && active_.back() == &it->second) active_.pop_back();
  it->second.cur_iter = -1;
}

void RaceOracle::bufferAllocated(const void* buffer) {
  for (LoopState* st : active_) {
    st->shadows.erase(buffer);
    // A buffer reborn at a stale privatized address no longer is the
    // privatized array (those resolve at loopEnter), so drop it.
    st->privatized.erase(buffer);
  }
}

void RaceOracle::promotedTestFailed(const ForStmt* loop) {
  auto it = loops_.find(loop);
  if (it == loops_.end()) return;
  LoopState& st = it->second;
  st.executed = true;
  flag(st, "promoted run-time test (statically proved always-true) "
           "evaluated false at loop entry");
}

void RaceOracle::flag(LoopState& st, std::string detail) {
  if (!st.violation) {
    st.violation = true;
    st.detail = std::move(detail);
  }
}

std::string RaceOracle::nameOf(const VarDecl* decl) const {
  // Only planned loops flag, and only the planned constructor sets the
  // interner.
  return decl ? std::string(interner_->str(decl->name)) : "<array>";
}

void RaceOracle::recordAccess(const void* buffer, size_t flat_index,
                              size_t buffer_size, bool is_write,
                              const VarDecl* decl) {
  if (active_.empty()) return;
  ++total_accesses_;
  for (LoopState* stp : active_) {
    LoopState& st = *stp;
    if (st.cur_iter < 0) continue;  // before the first iteration
    ++st.accesses;
    Shadow& sh = st.shadows[buffer];
    sh.ensure(buffer_size);
    int64_t& w = sh.write[flat_index];
    int64_t& r = sh.read[flat_index];
    // Violation details name ordinals within the invocation, not stamps.
    auto ord = [&st](int64_t stamp) { return std::to_string(stamp - st.base); };
    const bool privatized = st.privatized.count(buffer) > 0;
    if (is_write) {
      const bool waw = st.earlier(w), war = st.earlier(r);
      st.conflict = st.conflict || waw || war;
      const bool bad_waw = waw && !st.allows(w);
      const bool bad_war = war && !st.allows(r);
      if (st.plan && !privatized && (bad_waw || bad_war))
        flag(st, "shared array '" + nameOf(decl) +
                     "' element written by iteration " + ord(st.stamp()) +
                     " after iteration " + ord(bad_waw ? w : r) +
                     " accessed it");
      w = st.stamp();
    } else {
      if (st.earlier(w)) {
        // Read of a value an earlier iteration produced, this iteration
        // not having written the element itself yet: flow.
        st.conflict = st.flow = true;
        if (st.plan && privatized)
          flag(st, "privatized array '" + nameOf(decl) +
                       "' carries a value from iteration " + ord(w) +
                       " into iteration " + ord(st.stamp()) +
                       " (cross-iteration flow)");
        else if (st.plan && !st.allows(w))
          flag(st, "shared array '" + nameOf(decl) +
                       "' element read by iteration " + ord(st.stamp()) +
                       " was written by iteration " + ord(w));
      }
      r = st.stamp();
    }
  }
}

void RaceOracle::recordScalarRead(const VarDecl* decl) {
  for (LoopState* stp : active_) {
    LoopState& st = *stp;
    if (st.cur_iter < 0 || !st.tracked_scalars.count(decl) ||
        st.reduction_scalars.count(decl))
      continue;
    // Flow: the last write came from an earlier iteration and this
    // iteration has not overwritten the scalar yet.
    auto w = st.scalar_writes.find(decl);
    if (w != st.scalar_writes.end() && st.earlier(w->second))
      flag(st, "scalar '" + nameOf(decl) + "' read in iteration " +
                   std::to_string(st.cur_iter) +
                   " carries the value written by iteration " +
                   std::to_string(w->second - st.base));
  }
}

void RaceOracle::recordScalarWrite(const VarDecl* decl) {
  for (LoopState* stp : active_) {
    LoopState& st = *stp;
    if (st.cur_iter < 0 || !st.tracked_scalars.count(decl)) continue;
    st.scalar_writes[decl] = st.stamp();
  }
}

RaceOracle::LoopVerdict RaceOracle::verdictOf(const ForStmt* loop,
                                              const LoopState& st) const {
  LoopVerdict v;
  v.loop = loop;
  if (st.plan) {
    v.proc = st.plan->proc;
    v.status = st.plan->status;
  }
  v.invocations = st.invocations;
  v.executed = st.executed;
  v.conflict = st.conflict;
  v.flow = st.flow;
  v.accesses = st.accesses;
  v.violation = st.violation;
  v.detail = st.detail;
  v.loc = loop->loc;
  return v;
}

RaceOracle::LoopVerdict RaceOracle::verdict(const ForStmt* loop) const {
  auto it = loops_.find(loop);
  return it == loops_.end() ? LoopVerdict{} : verdictOf(loop, it->second);
}

std::vector<RaceOracle::LoopVerdict> RaceOracle::verdicts() const {
  std::vector<LoopVerdict> out;
  for (const auto& [loop, st] : loops_) out.push_back(verdictOf(loop, st));
  return out;
}

size_t RaceOracle::violationCount() const {
  size_t n = 0;
  for (const auto& [loop, st] : loops_)
    if (st.violation) ++n;
  return n;
}

std::string RaceOracle::report() const {
  std::string out;
  for (const LoopVerdict& v : verdicts()) {
    out += "loop " + v.loop->loop_id + " [" +
           std::string(loopStatusName(v.status)) + "] ";
    if (!v.executed)
      out += v.invocations == 0 ? "not reached" : "armed but no iterations";
    else if (v.violation)
      out += "VIOLATION: " + v.detail;
    else
      out += "clean over " + std::to_string(v.invocations) + " invocation(s)";
    out += '\n';
  }
  return out;
}

}  // namespace padfa
