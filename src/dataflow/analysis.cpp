#include "dataflow/analysis.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>

#include "lang/sema.h"
#include "symbolic/affine.h"

namespace padfa {

namespace {

/// Extraction keep-filter state: which VarIds must be eliminated when
/// projecting a dependence system onto runtime-evaluable parameters.
struct ParamFilter {
  const VarTable* vt;
  std::set<pb::VarId> eliminate_always;  // i1, i2, step aux vars, loop index

  bool keep(pb::VarId v) const {
    if (eliminate_always.count(v)) return false;
    VarKind k = vt->kindOf(v);
    if (k == VarKind::Dim) return false;
    // Params and *outer* loop indices are loop-entry constants. Inner
    // indices were already projected out of body summaries when their
    // loops were promoted, so any surviving Index var is outer.
    return true;
  }
};

class Analyzer {
 public:
  Analyzer(Program& program, const AnalysisConfig& cfg)
      : program_(program), cfg_(cfg), vt_(&program.interner) {}

  AnalysisResult run() {
    auto t0 = std::chrono::steady_clock::now();

    // Resource governance: install the budget for this thread. The
    // injector comes from the config when set, else from the environment
    // (PADFA_FAULT_RATE / PADFA_FAULT_SEED).
    FaultInjector* injector = cfg_.injector;
    std::optional<FaultInjector> env_injector;
    if (!injector) {
      env_injector = FaultInjector::fromEnv();
      if (env_injector) injector = &*env_injector;
    }
    AnalysisBudget budget(BudgetLimits::fromEnv(cfg_.budget), injector);
    BudgetScope scope(budget);

    for (ProcDecl* proc : bottomUpProcOrder(program_)) {
      cur_proc_ = proc;
      // Incremental replay: an unchanged procedure's finalized summary
      // and plans are loaded from the store instead of recomputed. The
      // load callback recreates the summary's VarIds in vt_ in cold-run
      // order, so the ids handed to later (re-analyzed) procedures line
      // up with a cold run of the same source.
      bool replayed = false;
      if (!degrade_rest_ && cfg_.preload && cfg_.preload->replay.count(proc)) {
        RegionSummary s;
        std::vector<LoopPlan> plans;
        if (cfg_.preload->load(proc, vt_, s, plans)) {
          proc_summaries_[proc] = std::move(s);
          for (LoopPlan& plan : plans)
            result_.plans[plan.loop] = std::move(plan);
          if (cfg_.preload->replayed) cfg_.preload->replayed->insert(proc);
          replayed = true;
        }
      }
      if (!replayed) {
        if (degrade_rest_) {
          // A budget already gave out: stop spending work on analysis and
          // summarize every remaining procedure conservatively.
          proc_summaries_[proc] = conservativeProcSummary(*proc);
        } else {
          try {
            computeAliases(*proc);
            RegionSummary s = analyzeBlock(*proc->body);
            finalizeProcSummary(*proc, s);
            proc_summaries_[proc] = std::move(s);
          } catch (const BudgetExceeded& e) {
            recordExhaustion(e);
            proc_summaries_[proc] = conservativeProcSummary(*proc);
          }
        }
      }
      if (proc_summaries_[proc].has_sink) tree_sink_.insert(proc);
      // Loops skipped by a conservative fallback get degraded plans.
      degradeUnplannedLoops(*proc->body);
    }

    if (cfg_.preload) {
      result_.proc_summaries = std::move(proc_summaries_);
      result_.vars.decls.resize(vt_.size());
      for (pb::VarId v = 0; v < vt_.size(); ++v) {
        result_.vars.decls[v] = vt_.isDim(v) ? nullptr : vt_.declOf(v);
        if (const pb::LinExpr* a = vt_.aliasOf(v))
          result_.vars.aliases[v] = *a;
      }
    }

    result_.degraded_globally = budget.exhaustedGlobally();
    result_.fm_steps = budget.fmSteps();
    result_.constraints_built = budget.constraintsBuilt();
    result_.pieces_touched = budget.piecesTouched();
    auto t1 = std::chrono::steady_clock::now();
    result_.analysis_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    return std::move(result_);
  }

 private:
  // ---------------------------------------------------- small helpers --

  std::optional<pb::LinExpr> affineOf(const Expr& e) {
    return tryAffine(e, vt_);
  }

  Pred predOf(const Expr& cond) {
    return Pred::fromCondition(cond, program_.interner);
  }

  /// Section for one array access: dim_j == subscript_j for affine
  /// subscripts, plus 0 <= dim_j <= extent_j - 1 bounds where extents are
  /// affine. Returns (section, all_subscripts_affine).
  std::pair<pb::Set, bool> accessSection(const ArrayRefExpr& ref) {
    pb::System sys;
    bool all_affine = true;
    for (size_t j = 0; j < ref.indices.size(); ++j) {
      if (auto a = affineOf(*ref.indices[j])) {
        pb::LinExpr eq = *a;
        eq -= pb::LinExpr::var(vt_.dim(j));
        sys.addEQ0(std::move(eq));
      } else {
        all_affine = false;
      }
    }
    addArrayBounds(sys, *ref.decl);
    return {pb::Set(std::move(sys)), all_affine};
  }

  void addArrayBounds(pb::System& sys, const VarDecl& array) {
    for (size_t j = 0; j < array.rank(); ++j) {
      if (auto ext = affineOf(*array.dims[j])) {
        sys.addGE0(pb::LinExpr::var(vt_.dim(j)));  // d_j >= 0
        pb::LinExpr ub = *ext;
        ub -= pb::LinExpr::var(vt_.dim(j));
        ub.setConstant(ub.constant() - 1);  // extent - d_j - 1 >= 0
        sys.addGE0(std::move(ub));
      }
    }
  }

  /// Whole-array section (bounds only — used for non-affine accesses and
  /// reshape defaults).
  pb::Set wholeArray(const VarDecl& array) {
    pb::System sys;
    addArrayBounds(sys, array);
    return pb::Set(std::move(sys));
  }

  // --------------------------------------------- graceful degradation --
  //
  // Every BudgetExceeded is caught at one of three boundaries (loop,
  // procedure, whole program) and converted into conservative results.
  // After the first exhaustion the rest of the program is summarized
  // conservatively too: plans finalized before the event are identical to
  // the un-governed run, and every later plan is Sequential — so the
  // degraded parallel plan is always a subset of the full one.

  void recordExhaustion(const BudgetExceeded& e) {
    degrade_rest_ = true;
    last_cause_ = budgetCauseName(e.cause());
    result_.exhaustion_causes[last_cause_]++;
  }

  /// Conservative sequential plan for a loop whose analysis blew the
  /// budget. Never overwrites an already-finalized plan.
  void degradePlan(const ForStmt& loop) {
    if (result_.plans.count(&loop)) return;
    LoopPlan plan;
    plan.loop = &loop;
    plan.proc = cur_proc_;
    plan.status = LoopStatus::Sequential;
    plan.degraded = true;
    plan.degrade_cause = last_cause_;
    plan.reason = "analysis budget exhausted (" + last_cause_ + ")";
    result_.plans[&loop] = std::move(plan);
  }

  void degradeUnplannedLoops(const BlockStmt& block) {
    for (const auto& st : block.stmts) {
      switch (st->kind) {
        case StmtKind::For: {
          const auto& f = static_cast<const ForStmt&>(*st);
          degradePlan(f);
          degradeUnplannedLoops(*f.body);
          break;
        }
        case StmtKind::If: {
          const auto& i = static_cast<const IfStmt&>(*st);
          degradeUnplannedLoops(*i.then_block);
          if (i.else_block) degradeUnplannedLoops(*i.else_block);
          break;
        }
        case StmtKind::Block:
          degradeUnplannedLoops(static_cast<const BlockStmt&>(*st));
          break;
        default:
          break;
      }
    }
  }

  /// Sound whole-array/whole-scalar over-approximation of a region,
  /// built without any charged set operations so it cannot itself blow
  /// the budget: every referenced array may be read, written, and
  /// upward-exposed over its whole extent (no must-writes), every
  /// referenced scalar may be written and is exposed (no must-writes).
  RegionSummary conservativeBlockSummary(const BlockStmt& block,
                                         const VarDecl* skip_index) {
    RegionSummary out;
    out.degraded = true;
    collectConservative(block, out);
    if (skip_index) out.scalars.erase(skip_index);
    return out;
  }

  void noteConservativeVars(const Expr& e, RegionSummary& out) {
    std::vector<const VarDecl*> vs;
    collectVars(e, vs);
    for (const VarDecl* d : vs) {
      if (d->isArray()) {
        ArraySummary& as = out.arrayFor(d);
        if (as.approximate) continue;  // already widened
        pb::Set whole = wholeArray(*d);
        as.reads.push_back({Pred::always(), whole});
        as.writes.push_back({Pred::always(), whole});
        as.exposed.push_back({Pred::always(), std::move(whole)});
        as.approximate = true;
      } else {
        ScalarEffect& eff = out.scalarFor(d);
        eff.may_write = true;
        eff.any_read = true;
        eff.exposed_read = true;
        eff.must_write = false;
      }
    }
  }

  void collectConservative(const BlockStmt& block, RegionSummary& out) {
    for (const auto& st : block.stmts) {
      switch (st->kind) {
        case StmtKind::Assign: {
          const auto& as = static_cast<const AssignStmt&>(*st);
          noteConservativeVars(*as.target, out);
          noteConservativeVars(*as.value, out);
          break;
        }
        case StmtKind::If: {
          const auto& i = static_cast<const IfStmt&>(*st);
          noteConservativeVars(*i.cond, out);
          collectConservative(*i.then_block, out);
          if (i.else_block) collectConservative(*i.else_block, out);
          break;
        }
        case StmtKind::For: {
          const auto& f = static_cast<const ForStmt&>(*st);
          noteConservativeVars(*f.lower, out);
          noteConservativeVars(*f.upper, out);
          if (f.step) noteConservativeVars(*f.step, out);
          collectConservative(*f.body, out);
          break;
        }
        case StmtKind::Call: {
          const auto& c = static_cast<const CallStmt&>(*st);
          for (const auto& a : c.args) noteConservativeVars(*a, out);
          if (c.is_sink || tree_sink_.count(c.callee_proc))
            out.has_sink = true;
          auto it = proc_summaries_.find(c.callee_proc);
          if (it != proc_summaries_.end() && it->second.has_sink)
            out.has_sink = true;
          break;
        }
        case StmtKind::Block:
          collectConservative(static_cast<const BlockStmt&>(*st), out);
          break;
        default:
          break;
      }
    }
  }

  /// Caller-visible conservative summary of a procedure: whole-array
  /// effects on array formals only (by-value scalars and locals do not
  /// escape), flagged degraded.
  RegionSummary conservativeProcSummary(const ProcDecl& proc) {
    RegionSummary out = conservativeBlockSummary(*proc.body, nullptr);
    std::erase_if(out.arrays,
                  [](const auto& kv) { return !kv.first->is_param; });
    out.scalars.clear();
    return out;
  }

  // -------------------------------------------------------- traversal --

  RegionSummary analyzeBlock(const BlockStmt& block) {
    RegionSummary acc;
    for (const auto& s : block.stmts) {
      RegionSummary next = analyzeStmt(*s);
      seqCompose(acc, std::move(next));
    }
    closeScope(acc, block);
    return acc;
  }

  RegionSummary analyzeStmt(const Stmt& s) {
    RecursionGuard depth_guard;  // statement-nesting backstop
    switch (s.kind) {
      case StmtKind::Assign:
        return analyzeAssign(static_cast<const AssignStmt&>(s));
      case StmtKind::If:
        return analyzeIf(static_cast<const IfStmt&>(s));
      case StmtKind::For:
        return analyzeFor(static_cast<const ForStmt&>(s));
      case StmtKind::Call:
        return analyzeCall(static_cast<const CallStmt&>(s));
      case StmtKind::Block:
        return analyzeBlock(static_cast<const BlockStmt&>(s));
      case StmtKind::Return:
        return {};
    }
    return {};
  }

  /// Record all reads performed by evaluating `e` (array sections into
  /// reads+exposed, scalars into scalar effects).
  void collectReads(const Expr& e, RegionSummary& out) {
    switch (e.kind) {
      case ExprKind::IntLit:
      case ExprKind::RealLit:
        return;
      case ExprKind::VarRef: {
        const auto& v = static_cast<const VarRefExpr&>(e);
        if (!v.decl || v.decl->isArray()) return;
        ScalarEffect& eff = out.scalarFor(v.decl);
        eff.any_read = true;
        if (!eff.must_write) eff.exposed_read = true;
        return;
      }
      case ExprKind::ArrayRef: {
        const auto& a = static_cast<const ArrayRefExpr&>(e);
        for (const auto& idx : a.indices) collectReads(*idx, out);
        auto [sec, affine] = accessSection(a);
        ArraySummary& as = out.arrayFor(a.decl);
        if (!affine) as.approximate = true;
        as.reads.push_back({Pred::always(), sec});
        as.exposed.push_back({Pred::always(), std::move(sec)});
        return;
      }
      case ExprKind::Unary:
        collectReads(*static_cast<const UnaryExpr&>(e).operand, out);
        return;
      case ExprKind::Binary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        collectReads(*b.lhs, out);
        collectReads(*b.rhs, out);
        return;
      }
      case ExprKind::Intrinsic:
        for (const auto& a : static_cast<const IntrinsicExpr&>(e).args)
          collectReads(*a, out);
        return;
    }
  }

  RegionSummary analyzeAssign(const AssignStmt& s) {
    RegionSummary out;
    collectReads(*s.value, out);
    if (s.target->kind == ExprKind::ArrayRef) {
      const auto& ref = static_cast<const ArrayRefExpr&>(*s.target);
      for (const auto& idx : ref.indices) collectReads(*idx, out);
      auto [sec, affine] = accessSection(ref);
      ArraySummary& as = out.arrayFor(ref.decl);
      as.writes.push_back({Pred::always(), sec});
      if (affine) {
        as.must_writes.push_back({Pred::always(), std::move(sec)});
      } else {
        as.approximate = true;
      }
    } else {
      const auto& ref = static_cast<const VarRefExpr&>(*s.target);
      ScalarEffect& eff = out.scalarFor(ref.decl);
      eff.may_write = true;
      eff.must_write = true;
    }
    return out;
  }

  RegionSummary analyzeIf(const IfStmt& s) {
    RegionSummary out;
    collectReads(*s.cond, out);
    RegionSummary then_s = analyzeBlock(*s.then_block);
    RegionSummary else_s =
        s.else_block ? analyzeBlock(*s.else_block) : RegionSummary{};

    if (cfg_.predicates) {
      Pred p = predOf(*s.cond);
      guardSummary(then_s, p);
      guardSummary(else_s, !p);
      mergeBranches(out, std::move(then_s), std::move(else_s),
                    /*predicated_must=*/true);
    } else {
      mergeBranches(out, std::move(then_s), std::move(else_s),
                    /*predicated_must=*/false);
    }
    return out;
  }

  /// Conjoin `p` onto every guarded list of the summary, embedding affine
  /// constraints into the sections when enabled.
  void guardSummary(RegionSummary& s, const Pred& p) {
    for (auto& [decl, as] : s.arrays) {
      guardList(as.reads, p);
      guardList(as.writes, p);
      guardList(as.must_writes, p);
      guardList(as.exposed, p);
      if (cfg_.embedding) {
        embedGuards(as.reads, vt_);
        embedGuards(as.writes, vt_);
        embedGuards(as.must_writes, vt_);
        embedGuards(as.exposed, vt_);
      }
    }
    // Scalar effects under a predicate: writes become may-writes only.
    if (!p.isTrue()) {
      for (auto& [decl, eff] : s.scalars) eff.must_write = false;
    }
  }

  void mergeBranches(RegionSummary& out, RegionSummary&& a,
                     RegionSummary&& b, bool predicated_must) {
    // May components and exposed reads: plain union.
    for (RegionSummary* src : {&a, &b}) {
      for (auto& [decl, as] : src->arrays) {
        ArraySummary& dst = out.arrayFor(decl);
        appendGuarded(dst.reads, as.reads);
        appendGuarded(dst.writes, as.writes);
        appendGuarded(dst.exposed, as.exposed);
        dst.approximate |= as.approximate;
        if (predicated_must) appendGuarded(dst.must_writes, as.must_writes);
      }
      out.has_sink |= src->has_sink;
      out.degraded |= src->degraded;
    }
    if (!predicated_must) {
      // Baseline: must-written only if written on both paths.
      for (auto& [decl, as] : a.arrays) {
        auto it = b.arrays.find(decl);
        if (it == b.arrays.end()) continue;
        ArraySummary& dst = out.arrayFor(decl);
        for (const auto& ma : as.must_writes) {
          for (const auto& mb : it->second.must_writes) {
            pb::Set inter = ma.section.intersect(mb.section);
            if (!inter.isEmpty())
              dst.must_writes.push_back({Pred::always(), std::move(inter)});
          }
        }
      }
    }
    // Scalars: may = or, must = and, exposed = or.
    for (RegionSummary* src : {&a, &b}) {
      for (auto& [decl, eff] : src->scalars) {
        ScalarEffect& dst = out.scalarFor(decl);
        dst.may_write |= eff.may_write;
        dst.any_read |= eff.any_read;
        // exposure is refined below; keep or-accumulation here
        dst.exposed_read |= eff.exposed_read;
      }
    }
    // must_write = and over branches.
    for (auto& [decl, dst] : out.scalars) {
      bool am = a.scalars.count(decl) && a.scalars[decl].must_write;
      bool bm = b.scalars.count(decl) && b.scalars[decl].must_write;
      if (!(am && bm)) dst.must_write = dst.must_write && false;
      else dst.must_write = true;
    }
  }

  RegionSummary analyzeCall(const CallStmt& s) {
    RegionSummary out;
    if (s.is_sink) {
      for (const auto& a : s.args) collectReads(*a, out);
      out.has_sink = true;
      return out;
    }
    // Evaluating scalar argument expressions reads them at the call.
    const auto& params = s.callee_proc->params;
    for (size_t i = 0; i < s.args.size(); ++i) {
      if (!params[i]->isArray()) collectReads(*s.args[i], out);
    }
    // Summary-dependence relation: this procedure's analysis consumes the
    // callee's summary (change-impact analysis invalidates accordingly).
    result_.summary_deps[cur_proc_].insert(s.callee_proc);
    translateCallee(*s.callee_proc, s, out);
    if (tree_sink_.count(s.callee_proc)) out.has_sink = true;
    return out;
  }

  // ------------------------------------------- sequential composition --

  void seqCompose(RegionSummary& acc, RegionSummary&& next) {
    // Scalars (and arrays) written by `acc` invalidate references in
    // `next`'s guards and sections, which describe values at next-entry.
    std::vector<const VarDecl*> killed;      // weaken, no substitution
    std::vector<const VarDecl*> substable;   // single-assign with alias
    for (const auto& [decl, eff] : acc.scalars) {
      if (!eff.may_write) continue;
      if (alias_expr_.count(decl)) substable.push_back(decl);
      else killed.push_back(decl);
    }
    std::vector<const VarDecl*> written_arrays;
    for (const auto& [decl, as] : acc.arrays) {
      if (!as.writes.empty() || as.approximate) written_arrays.push_back(decl);
    }

    for (auto& [decl, as] : next.arrays) {
      applyKills(as.reads, killed, substable, written_arrays, false);
      applyKills(as.writes, killed, substable, written_arrays, false);
      applyKills(as.exposed, killed, substable, written_arrays, false);
      applyKills(as.must_writes, killed, substable, written_arrays, true);
    }

    // Compose: E := E1 ∪ (E2 ⊖ MW1).
    for (auto& [decl, as] : next.arrays) {
      ArraySummary& dst = acc.arrayFor(decl);
      GuardedList rem = as.exposed;
      if (!dst.must_writes.empty()) {
        rem = predSubtract(rem, dst.must_writes, vt_);
        if (cfg_.embedding) embedGuards(rem, vt_);
      }
      appendGuarded(dst.exposed, rem);
      appendGuarded(dst.reads, as.reads);
      appendGuarded(dst.writes, as.writes);
      appendGuarded(dst.must_writes, as.must_writes);
      dst.approximate |= as.approximate;
    }
    for (auto& [decl, eff] : next.scalars) {
      ScalarEffect& dst = acc.scalarFor(decl);
      if (eff.exposed_read && !dst.must_write) dst.exposed_read = true;
      dst.any_read |= eff.any_read;
      dst.may_write |= eff.may_write;
      dst.must_write |= eff.must_write;
    }
    acc.has_sink |= next.has_sink;
    acc.degraded |= next.degraded;
  }

  /// Kill stale references in one guarded list.
  void applyKills(GuardedList& list, const std::vector<const VarDecl*>& killed,
                  const std::vector<const VarDecl*>& substable,
                  const std::vector<const VarDecl*>& written_arrays,
                  bool is_must) {
    if (!substable.empty()) {
      for (auto& g : list) {
        if (!g.guard.mentionsAnyOf(substable)) continue;
        g.guard = g.guard.substitute(
            [this](const VarDecl* d) -> const Expr* {
              auto it = alias_expr_.find(d);
              return it == alias_expr_.end() ? nullptr : it->second;
            },
            program_.interner);
      }
      // Sections never mention aliased scalars (tryAffine inlines them).
    }
    std::vector<const VarDecl*> weaken = killed;
    weaken.insert(weaken.end(), written_arrays.begin(), written_arrays.end());
    if (weaken.empty()) return;
    if (is_must)
      killScalarsMust(list, killed, vt_);
    else
      killScalarsMay(list, killed, vt_);
    // Guards referencing written arrays (e.g. `if (a[i] > 0)`).
    for (auto& g : list) {
      if (g.guard.mentionsAnyOf(written_arrays))
        g.guard = g.guard.weakenAtoms(written_arrays, /*toTrue=*/!is_must);
    }
    std::erase_if(list, [](const GuardedSection& g) {
      return g.guard.isFalse() || g.section.isEmpty();
    });
  }

  /// Remove block-local declarations from a summary at scope exit: their
  /// storage is private to each execution of the block, so they cannot
  /// carry dependences upward; references to their values are killed.
  void closeScope(RegionSummary& s, const BlockStmt& block) {
    if (block.decls.empty()) return;
    std::vector<const VarDecl*> locals;
    for (const auto& d : block.decls) locals.push_back(d.get());

    for (const auto& d : block.decls) {
      s.arrays.erase(d.get());
      s.scalars.erase(d.get());
    }
    for (auto& [decl, as] : s.arrays) {
      // Sections/guards referencing out-of-scope scalars: aliased locals
      // are already inlined; the rest must be killed.
      std::vector<const VarDecl*> killed;
      for (const VarDecl* l : locals)
        if (!l->isArray() && !alias_expr_.count(l)) killed.push_back(l);
      if (killed.empty()) break;
      killScalarsMay(as.reads, killed, vt_);
      killScalarsMay(as.writes, killed, vt_);
      killScalarsMay(as.exposed, killed, vt_);
      killScalarsMust(as.must_writes, killed, vt_);
    }
  }

  /// Drop everything that is meaningless outside the procedure: local
  /// scalar effects and references to locals inside sections and guards
  /// (formals survive; aliased locals are already expressed via formals).
  void finalizeProcSummary(const ProcDecl& proc, RegionSummary& s) {
    std::vector<const VarDecl*> locals;
    for (const VarDecl* d : proc.all_vars) {
      if (!d->is_param && !d->isArray() && !alias_expr_.count(d))
        locals.push_back(d);
    }
    for (auto& [decl, as] : s.arrays) {
      killScalarsMay(as.reads, locals, vt_);
      killScalarsMay(as.writes, locals, vt_);
      killScalarsMay(as.exposed, locals, vt_);
      killScalarsMust(as.must_writes, locals, vt_);
    }
    // Scalar params are by-value: their effects do not escape.
    s.scalars.clear();
  }

  // -------------------------------------------------- alias detection --

  /// Forward-substitution pass: a scalar assigned exactly once, at the
  /// top level of the procedure body, before any read, with an affine
  /// RHS, becomes an alias (e.g. `m = n - 1`). Keeps sections expressed
  /// over procedure parameters.
  void computeAliases(const ProcDecl& proc) {
    alias_expr_.clear();
    std::map<const VarDecl*, int> assign_counts;
    countAssigns(*proc.body, assign_counts);
    std::set<const VarDecl*> read_so_far;
    for (const auto& st : proc.body->stmts) {
      if (st->kind != StmtKind::Assign) {
        markReads(*st, read_so_far);
        continue;
      }
      const auto& as = static_cast<const AssignStmt&>(*st);
      std::vector<const VarDecl*> value_reads;
      collectVars(*as.value, value_reads);
      if (as.target->kind == ExprKind::VarRef) {
        const VarDecl* t = static_cast<const VarRefExpr&>(*as.target).decl;
        if (t && !t->is_param && assign_counts[t] == 1 &&
            !read_so_far.count(t) && t->elem_type == Type::Int) {
          bool rhs_clean = true;
          for (const VarDecl* r : value_reads)
            if (r->isArray() || assign_counts[r] > 0) rhs_clean = false;
          if (rhs_clean) {
            if (auto aff = affineOf(*as.value)) {
              vt_.setAlias(vt_.idFor(t), *aff);
              alias_expr_[t] = as.value.get();
            }
          }
        }
      }
      markReads(*st, read_so_far);
    }
  }

  void countAssigns(const BlockStmt& b, std::map<const VarDecl*, int>& out) {
    for (const auto& st : b.stmts) {
      switch (st->kind) {
        case StmtKind::Assign: {
          const auto& as = static_cast<const AssignStmt&>(*st);
          if (as.target->kind == ExprKind::VarRef) {
            const VarDecl* t =
                static_cast<const VarRefExpr&>(*as.target).decl;
            if (t) out[t]++;
          }
          break;
        }
        case StmtKind::If: {
          const auto& i = static_cast<const IfStmt&>(*st);
          countAssigns(*i.then_block, out);
          if (i.else_block) countAssigns(*i.else_block, out);
          break;
        }
        case StmtKind::For:
          countAssigns(*static_cast<const ForStmt&>(*st).body, out);
          break;
        case StmtKind::Block:
          countAssigns(static_cast<const BlockStmt&>(*st), out);
          break;
        default:
          break;
      }
    }
  }

  void markReads(const Stmt& st, std::set<const VarDecl*>& reads) {
    auto addExpr = [&reads](const Expr& e) {
      std::vector<const VarDecl*> vs;
      collectVars(e, vs);
      reads.insert(vs.begin(), vs.end());
    };
    switch (st.kind) {
      case StmtKind::Assign: {
        const auto& as = static_cast<const AssignStmt&>(st);
        addExpr(*as.value);
        if (as.target->kind == ExprKind::ArrayRef) {
          for (const auto& idx :
               static_cast<const ArrayRefExpr&>(*as.target).indices)
            addExpr(*idx);
        }
        break;
      }
      case StmtKind::If: {
        const auto& i = static_cast<const IfStmt&>(st);
        addExpr(*i.cond);
        for (const auto& c : i.then_block->stmts) markReads(*c, reads);
        if (i.else_block)
          for (const auto& c : i.else_block->stmts) markReads(*c, reads);
        break;
      }
      case StmtKind::For: {
        const auto& f = static_cast<const ForStmt&>(st);
        addExpr(*f.lower);
        addExpr(*f.upper);
        if (f.step) addExpr(*f.step);
        for (const auto& c : f.body->stmts) markReads(*c, reads);
        break;
      }
      case StmtKind::Call: {
        const auto& c = static_cast<const CallStmt&>(st);
        for (const auto& a : c.args) addExpr(*a);
        break;
      }
      case StmtKind::Block:
        for (const auto& c : static_cast<const BlockStmt&>(st).stmts)
          markReads(*c, reads);
        break;
      default:
        break;
    }
  }

  // --------------------------------------- interprocedural translation --

  void translateCallee(const ProcDecl& callee, const CallStmt& call,
                       RegionSummary& out);
  void translateList(const GuardedList& src, GuardedList& dst,
                     const std::vector<std::pair<pb::VarId,
                                                 std::optional<pb::LinExpr>>>&
                         scalar_map,
                     const std::function<const Expr*(const VarDecl*)>& subst,
                     const std::vector<const VarDecl*>& unmapped,
                     bool is_must);
  void reshapeTranslate(const VarDecl& formal, const VarDecl& actual,
                        const ArraySummary& src, const CallStmt& call,
                        const std::function<const Expr*(const VarDecl*)>&
                            subst,
                        RegionSummary& out);

  // ----------------------------------------------------- loop analysis --

  RegionSummary analyzeFor(const ForStmt& loop);
  void planLoop(const ForStmt& loop, const RegionSummary& body);
  RegionSummary promoteLoop(const ForStmt& loop, const RegionSummary& body);

  /// Bounds constraints for an iteration variable standing for `loop`'s
  /// index; appends aux step variables to `aux` when step > 1.
  pb::System boundsFor(const ForStmt& loop, pb::VarId iter,
                       std::vector<pb::VarId>* aux);

  /// Weakened (loop-invariant) copy of a guarded list: guards and
  /// sections that reference body-modified scalars are killed; guards
  /// that reference the loop index are weakened.
  GuardedList loopInvariantList(const GuardedList& src, const ForStmt& loop,
                                const RegionSummary& body, bool is_must);

  bool liveAfterLoop(const VarDecl* decl, const ForStmt& loop);
  bool readsDeclOutside(const BlockStmt& block, const VarDecl* decl,
                        const Stmt* skip);

  std::map<const VarDecl*, ReductionOp> recognizeReductions(
      const ForStmt& loop);

  /// Render a conjunction of parameter constraints as a predicate; returns
  /// nullopt if a variable cannot be rendered back to a program scalar.
  std::optional<Pred> systemToPred(const pb::System& sys);

  bool evaluableAtLoopEntry(const Pred& p, const RegionSummary& body);

  // --- members ---
  Program& program_;
  AnalysisConfig cfg_;
  VarTable vt_;
  AnalysisResult result_;
  std::map<const ProcDecl*, RegionSummary> proc_summaries_;
  std::set<const ProcDecl*> tree_sink_;  // procs that transitively sink
  const ProcDecl* cur_proc_ = nullptr;
  std::map<const VarDecl*, const Expr*> alias_expr_;
  std::set<std::string> reshape_pred_keys_;
  /// Set at the first budget exhaustion; all later loops degrade to
  /// Sequential so the surviving parallel plan is exactly the prefix that
  /// was finalized before the event.
  bool degrade_rest_ = false;
  std::string last_cause_ = "budget";
  /// Bounds systems of the loops enclosing the region being analyzed
  /// (over their real index VarIds). Used to "gist" extracted conditions:
  /// a breaking condition implied by the context is vacuous.
  std::vector<pb::System> loop_ctx_;

  pb::System contextSystem() const {
    pb::System ctx;
    for (const auto& s : loop_ctx_) ctx.conjoin(s);
    return ctx;
  }

  /// Drop constraints that already follow from the enclosing-loop context
  /// (the gist of `sys` given the context).
  pb::System gistAgainstContext(const pb::System& sys) {
    pb::System ctx = contextSystem();
    pb::System out;
    for (const auto& c : sys.constraints()) {
      bool implied = false;
      if (c.kind == pb::CmpKind::GE0) {
        pb::System probe = ctx;
        probe.add(c.negatedGE());
        implied = !probe.feasible();
      } else {
        pb::System p1 = ctx;
        p1.add(pb::Constraint::ge0(c.expr).negatedGE());
        pb::System p2 = ctx;
        p2.add(pb::Constraint::ge0(c.expr.negated()).negatedGE());
        implied = !p1.feasible() && !p2.feasible();
      }
      if (!implied) out.add(c);
    }
    return out;
  }
};

// ======================================================================
// Interprocedural translation
// ======================================================================

void Analyzer::translateCallee(const ProcDecl& callee, const CallStmt& call,
                               RegionSummary& out) {
  auto summary_it = proc_summaries_.find(&callee);
  if (summary_it == proc_summaries_.end()) return;  // no summary: leaf w/o effects
  const RegionSummary& src = summary_it->second;

  // Record sink propagation.
  if (src.has_sink) tree_sink_.insert(&callee);
  // A degraded callee summary taints every caller region containing the
  // call: its whole-array sections are sound, but loops planned over them
  // must stay sequential.
  out.degraded |= src.degraded;

  // Scalar formal -> affine actual mapping (by VarId), plus the Expr-level
  // substitution for guards.
  std::vector<std::pair<pb::VarId, std::optional<pb::LinExpr>>> scalar_map;
  std::map<const VarDecl*, const Expr*> expr_map;
  std::map<const VarDecl*, const VarDecl*> array_map;
  std::vector<const VarDecl*> unmapped;  // formals w/o affine actuals
  for (size_t i = 0; i < callee.params.size(); ++i) {
    const VarDecl* formal = callee.params[i].get();
    const Expr* actual = call.args[i].get();
    if (formal->isArray()) {
      const auto& ref = static_cast<const VarRefExpr&>(*actual);
      array_map[formal] = ref.decl;
      continue;
    }
    expr_map[formal] = actual;
    if (formal->elem_type == Type::Int) {
      scalar_map.push_back({vt_.idFor(formal), affineOf(*actual)});
      if (!scalar_map.back().second) unmapped.push_back(formal);
    }
  }
  auto subst = [&expr_map](const VarDecl* d) -> const Expr* {
    auto it = expr_map.find(d);
    return it == expr_map.end() ? nullptr : it->second;
  };

  for (const auto& [formal, asum] : src.arrays) {
    auto am = array_map.find(formal);
    if (am == array_map.end()) continue;  // defensive
    const VarDecl* actual = am->second;
    if (formal->rank() == actual->rank()) {
      ArraySummary& dst = out.arrayFor(actual);
      translateList(asum.reads, dst.reads, scalar_map, subst, unmapped, false);
      translateList(asum.writes, dst.writes, scalar_map, subst, unmapped,
                    false);
      translateList(asum.exposed, dst.exposed, scalar_map, subst, unmapped,
                    false);
      translateList(asum.must_writes, dst.must_writes, scalar_map, subst,
                    unmapped, true);
      dst.approximate |= asum.approximate;
    } else {
      reshapeTranslate(*formal, *actual, asum, call, subst, out);
    }
  }
}

void Analyzer::translateList(
    const GuardedList& src, GuardedList& dst,
    const std::vector<std::pair<pb::VarId, std::optional<pb::LinExpr>>>&
        scalar_map,
    const std::function<const Expr*(const VarDecl*)>& subst,
    const std::vector<const VarDecl*>& unmapped, bool is_must) {
  for (const auto& g : src) {
    GuardedSection t;
    t.guard = g.guard.substitute(subst, program_.interner);
    if (!unmapped.empty())
      t.guard = t.guard.weakenAtoms(unmapped, /*toTrue=*/!is_must);
    if (t.guard.isFalse()) continue;
    t.section = g.section;
    bool dropped = false;
    for (const auto& [fid, repl] : scalar_map) {
      if (repl) {
        t.section.substitute(fid, *repl);
      } else {
        // Non-affine actual: kill the formal's id.
        bool mentions = false;
        for (const auto& piece : t.section.pieces())
          for (pb::VarId v : piece.usedVars())
            if (v == fid) mentions = true;
        if (!mentions) continue;
        if (is_must) {
          dropped = true;
          break;
        }
        t.section.projectOnto([fid](pb::VarId v) { return v != fid; });
      }
    }
    if (dropped) continue;
    t.section.simplify();
    if (t.section.isEmpty()) continue;
    dst.push_back(std::move(t));
  }
}

void Analyzer::reshapeTranslate(
    const VarDecl& formal, const VarDecl& actual, const ArraySummary& src,
    const CallStmt& call,
    const std::function<const Expr*(const VarDecl*)>& subst,
    RegionSummary& out) {
  (void)call;
  ArraySummary& dst = out.arrayFor(&actual);
  bool has_read = !src.reads.empty() || !src.exposed.empty();
  bool has_write = !src.writes.empty();
  pb::Set whole = wholeArray(actual);

  // Default (conservative) translation: whole-array may accesses.
  if (has_read) {
    dst.reads.push_back({Pred::always(), whole});
    dst.exposed.push_back({Pred::always(), whole});
  }
  if (has_write) dst.writes.push_back({Pred::always(), whole});
  dst.approximate = true;

  // Optimistic translation (the paper's Reshape): when the callee
  // must-writes its whole 1-D formal [0 .. len-1], the actual array is
  // entirely written iff len equals the actual's total element count.
  if (!cfg_.predicates || formal.rank() != 1 || !has_write) return;
  // Coverage check in the callee's space.
  auto len_aff = affineOf(*formal.dims[0]);
  if (!len_aff) return;
  pb::System full;
  full.addGE0(pb::LinExpr::var(vt_.dim(0)));
  pb::LinExpr ub = *len_aff;
  ub -= pb::LinExpr::var(vt_.dim(0));
  ub.setConstant(ub.constant() - 1);
  full.addGE0(std::move(ub));
  pb::Set full_set{std::move(full)};
  GuardedList unconditional;
  for (const auto& m : src.must_writes)
    if (m.guard.isTrue()) unconditional.push_back(m);
  if (unconditional.empty()) return;
  if (!full_set.isSubsetOf(unguardedUnion(unconditional))) return;

  // Build the divisibility/size predicate: translated_len == total(actual).
  ExprPtr len_expr = cloneExprSubst(*formal.dims[0], subst);
  ExprPtr total;
  for (const auto& dim : actual.dims) {
    ExprPtr d = cloneExpr(*dim);
    if (!total) {
      total = std::move(d);
    } else {
      auto mul = std::make_unique<BinaryExpr>(BinOp::Mul, std::move(total),
                                              std::move(d));
      mul->type = Type::Int;
      total = std::move(mul);
    }
  }
  Pred size_eq = Pred::atom(AtomOp::Eq, *len_expr, *total, false,
                            program_.interner);
  if (size_eq.isFalse()) return;
  reshape_pred_keys_.insert(size_eq.key());
  dst.must_writes.push_back({size_eq, whole});
}

// ======================================================================
// Loops
// ======================================================================

pb::System Analyzer::boundsFor(const ForStmt& loop, pb::VarId iter,
                               std::vector<pb::VarId>* aux) {
  pb::System sys;
  auto lb = affineOf(*loop.lower);
  auto ub = affineOf(*loop.upper);
  int64_t step = 1;
  if (loop.step) {
    auto s = tryConstInt(*loop.step);
    step = s.value_or(0);
  }
  if (lb) {
    pb::LinExpr ge = pb::LinExpr::var(iter);
    ge -= *lb;
    sys.addGE0(std::move(ge));  // iter >= lb
  }
  if (ub) {
    pb::LinExpr le = *ub;
    le -= pb::LinExpr::var(iter);
    sys.addGE0(std::move(le));  // iter <= ub
  }
  if (step > 1 && lb && aux) {
    pb::VarId k = vt_.fresh(VarKind::Index, "@k" + std::to_string(iter));
    aux->push_back(k);
    // iter == lb + step * k, k >= 0.
    pb::LinExpr eq = pb::LinExpr::var(iter);
    eq -= *lb;
    eq -= pb::LinExpr::var(k, step);
    sys.addEQ0(std::move(eq));
    sys.addGE0(pb::LinExpr::var(k));
  }
  return sys;
}

GuardedList Analyzer::loopInvariantList(const GuardedList& src,
                                        const ForStmt& loop,
                                        const RegionSummary& body,
                                        bool is_must) {
  std::vector<const VarDecl*> body_written;
  for (const auto& [decl, eff] : body.scalars)
    if (eff.may_write) body_written.push_back(decl);
  std::vector<const VarDecl*> body_written_arrays;
  for (const auto& [decl, as] : body.arrays)
    if (!as.writes.empty() || as.approximate)
      body_written_arrays.push_back(decl);

  GuardedList out = src;
  // Guards mentioning the loop index are not loop-entry-evaluable.
  std::vector<const VarDecl*> weaken_vars = body_written;
  weaken_vars.push_back(loop.index_decl);
  weaken_vars.insert(weaken_vars.end(), body_written_arrays.begin(),
                     body_written_arrays.end());
  for (auto& g : out)
    g.guard = g.guard.weakenAtoms(weaken_vars, /*toTrue=*/!is_must);
  // Sections referencing body-written scalars are stale across iterations.
  if (is_must)
    killScalarsMust(out, body_written, vt_);
  else
    killScalarsMay(out, body_written, vt_);
  std::erase_if(out, [](const GuardedSection& g) {
    return g.guard.isFalse() || g.section.isEmpty();
  });
  return out;
}

std::optional<Pred> Analyzer::systemToPred(const pb::System& sys) {
  Pred acc = Pred::always();
  for (const auto& c : sys.constraints()) {
    Pred p = Pred::fromAffineGE0(c.expr, vt_, program_.interner);
    if (p.isFalse() && !c.expr.isConstant()) return std::nullopt;  // unrenderable
    if (c.kind == pb::CmpKind::EQ0) {
      Pred q = Pred::fromAffineGE0(c.expr.negated(), vt_, program_.interner);
      if (q.isFalse() && !c.expr.isConstant()) return std::nullopt;
      p = p && q;
    }
    acc = acc && p;
  }
  return acc;
}

bool Analyzer::evaluableAtLoopEntry(const Pred& p, const RegionSummary& body) {
  std::vector<const VarDecl*> used;
  p.collectReferencedVars(used);
  for (const VarDecl* d : used) {
    if (d->isArray()) return false;  // array-valued atoms: not loop-entry safe
    auto it = body.scalars.find(d);
    if (it != body.scalars.end() && it->second.may_write) return false;
  }
  return true;
}

std::map<const VarDecl*, ReductionOp> Analyzer::recognizeReductions(
    const ForStmt& loop) {
  struct Cand {
    bool bad = false;
    bool seen = false;
    ReductionOp op = ReductionOp::Sum;
  };
  std::map<const VarDecl*, Cand> cands;

  // Does `e` reference `d` anywhere?
  auto refs = [](const Expr& e, const VarDecl* d) {
    std::vector<const VarDecl*> vs;
    collectVars(e, vs);
    return std::find(vs.begin(), vs.end(), d) != vs.end();
  };

  // Try to match `s = s op e1 op e2 op ...` (op-chain with exactly one
  // occurrence of s among the leaves) or `s = min|max(s, e)`.
  auto matchReduction = [&](const AssignStmt& as, const VarDecl* s)
      -> std::optional<std::pair<ReductionOp, const Expr*>> {
    const Expr& v = *as.value;
    if (v.kind == ExprKind::Binary) {
      const auto& b = static_cast<const BinaryExpr&>(v);
      if (b.op != BinOp::Add && b.op != BinOp::Mul) return std::nullopt;
      ReductionOp op = b.op == BinOp::Add ? ReductionOp::Sum : ReductionOp::Prod;
      // Flatten the same-op chain into leaves.
      std::vector<const Expr*> leaves;
      std::vector<const Expr*> work = {&v};
      while (!work.empty()) {
        const Expr* e = work.back();
        work.pop_back();
        if (e->kind == ExprKind::Binary &&
            static_cast<const BinaryExpr*>(e)->op == b.op) {
          work.push_back(static_cast<const BinaryExpr*>(e)->lhs.get());
          work.push_back(static_cast<const BinaryExpr*>(e)->rhs.get());
        } else {
          leaves.push_back(e);
        }
      }
      auto isS = [&](const Expr& e) {
        return e.kind == ExprKind::VarRef &&
               static_cast<const VarRefExpr&>(e).decl == s;
      };
      const Expr* other = nullptr;
      int s_count = 0;
      for (const Expr* leaf : leaves) {
        if (isS(*leaf)) {
          ++s_count;
        } else {
          if (refs(*leaf, s)) return std::nullopt;
          other = leaf;
        }
      }
      if (s_count != 1 || !other) return std::nullopt;
      return {{op, other}};
    }
    if (v.kind == ExprKind::Intrinsic) {
      const auto& c = static_cast<const IntrinsicExpr&>(v);
      if (c.fn != Intrinsic::Min && c.fn != Intrinsic::Max)
        return std::nullopt;
      if (c.args.size() != 2) return std::nullopt;
      ReductionOp op =
          c.fn == Intrinsic::Min ? ReductionOp::Min : ReductionOp::Max;
      auto isS = [&](const Expr& e) {
        return e.kind == ExprKind::VarRef &&
               static_cast<const VarRefExpr&>(e).decl == s;
      };
      if (isS(*c.args[0]) && !refs(*c.args[1], s))
        return {{op, c.args[1].get()}};
      if (isS(*c.args[1]) && !refs(*c.args[0], s))
        return {{op, c.args[0].get()}};
    }
    return std::nullopt;
  };

  std::function<void(const BlockStmt&)> walk = [&](const BlockStmt& b) {
    for (const auto& st : b.stmts) {
      switch (st->kind) {
        case StmtKind::Assign: {
          const auto& as = static_cast<const AssignStmt&>(*st);
          const VarDecl* target =
              as.target->kind == ExprKind::VarRef
                  ? static_cast<const VarRefExpr&>(*as.target).decl
                  : nullptr;
          if (target && !target->isArray() && !target->is_loop_index) {
            if (auto m = matchReduction(as, target)) {
              Cand& c = cands[target];
              if (c.seen && c.op != m->first) c.bad = true;
              c.seen = true;
              c.op = m->first;
              // The matched statement is the only allowed occurrence
              // shape; any reference to target elsewhere marks bad below,
              // so skip re-walking this statement for the target only.
              std::vector<const VarDecl*> vs;
              collectVars(*as.value, vs);
              for (const VarDecl* d : vs)
                if (d != target) cands[d].bad = true;
              continue;
            }
          }
          // Non-reduction statement: every referenced scalar is
          // disqualified; a written scalar is disqualified too.
          std::vector<const VarDecl*> vs;
          collectVars(*as.target, vs);
          collectVars(*as.value, vs);
          for (const VarDecl* d : vs) cands[d].bad = true;
          break;
        }
        case StmtKind::If: {
          const auto& i = static_cast<const IfStmt&>(*st);
          std::vector<const VarDecl*> vs;
          collectVars(*i.cond, vs);
          for (const VarDecl* d : vs) cands[d].bad = true;
          walk(*i.then_block);
          if (i.else_block) walk(*i.else_block);
          break;
        }
        case StmtKind::For: {
          const auto& f = static_cast<const ForStmt&>(*st);
          std::vector<const VarDecl*> vs;
          collectVars(*f.lower, vs);
          collectVars(*f.upper, vs);
          if (f.step) collectVars(*f.step, vs);
          for (const VarDecl* d : vs) cands[d].bad = true;
          walk(*f.body);
          break;
        }
        case StmtKind::Call: {
          const auto& c = static_cast<const CallStmt&>(*st);
          std::vector<const VarDecl*> vs;
          for (const auto& a : c.args) collectVars(*a, vs);
          for (const VarDecl* d : vs) cands[d].bad = true;
          break;
        }
        case StmtKind::Block:
          walk(static_cast<const BlockStmt&>(*st));
          break;
        default:
          break;
      }
    }
  };
  walk(*loop.body);

  std::map<const VarDecl*, ReductionOp> out;
  for (const auto& [decl, c] : cands)
    if (c.seen && !c.bad) out[decl] = c.op;
  return out;
}

bool Analyzer::readsDeclOutside(const BlockStmt& block, const VarDecl* decl,
                                const Stmt* skip) {
  auto exprReads = [decl](const Expr& e) {
    std::vector<const VarDecl*> vs;
    collectVars(e, vs);
    return std::find(vs.begin(), vs.end(), decl) != vs.end();
  };
  for (const auto& st : block.stmts) {
    if (st.get() == skip) continue;
    switch (st->kind) {
      case StmtKind::Assign: {
        const auto& as = static_cast<const AssignStmt&>(*st);
        if (exprReads(*as.value)) return true;
        if (as.target->kind == ExprKind::ArrayRef) {
          for (const auto& idx :
               static_cast<const ArrayRefExpr&>(*as.target).indices)
            if (exprReads(*idx)) return true;
        }
        break;
      }
      case StmtKind::If: {
        const auto& i = static_cast<const IfStmt&>(*st);
        if (exprReads(*i.cond)) return true;
        if (readsDeclOutside(*i.then_block, decl, skip)) return true;
        if (i.else_block && readsDeclOutside(*i.else_block, decl, skip))
          return true;
        break;
      }
      case StmtKind::For: {
        const auto& f = static_cast<const ForStmt&>(*st);
        if (exprReads(*f.lower) || exprReads(*f.upper)) return true;
        if (f.step && exprReads(*f.step)) return true;
        if (readsDeclOutside(*f.body, decl, skip)) return true;
        break;
      }
      case StmtKind::Call: {
        const auto& c = static_cast<const CallStmt&>(*st);
        for (const auto& a : c.args)
          if (exprReads(*a)) return true;  // whole-array args count as reads
        break;
      }
      case StmtKind::Block:
        if (readsDeclOutside(static_cast<const BlockStmt&>(*st), decl, skip))
          return true;
        break;
      default:
        break;
    }
  }
  return false;
}

bool Analyzer::liveAfterLoop(const VarDecl* decl, const ForStmt& loop) {
  if (decl->is_param) return true;
  return readsDeclOutside(*cur_proc_->body, decl, &loop);
}

void Analyzer::planLoop(const ForStmt& loop, const RegionSummary& body) {
  LoopPlan plan;
  plan.loop = &loop;
  plan.proc = cur_proc_;
  auto finish = [&](LoopStatus st, std::string reason = "") {
    plan.status = st;
    plan.reason = std::move(reason);
    result_.plans[&loop] = std::move(plan);
  };

  // ---------------- degradation ----------------
  // A degraded body summary is a sound over-approximation, but testing
  // dependence (or extracting run-time conditions) over it could still
  // promote the loop past Sequential in ways the un-degraded analysis
  // would not; keep every such loop sequential.
  if (body.degraded || degrade_rest_) {
    plan.degraded = true;
    plan.degrade_cause = last_cause_;
    return finish(LoopStatus::Sequential,
                  "analysis budget exhausted (" + last_cause_ + ")");
  }

  // ---------------- candidacy ----------------
  if (body.has_sink) {
    return finish(LoopStatus::NotCandidate, "contains I/O (sink)");
  }
  if (loop.step) {
    auto s = tryConstInt(*loop.step);
    if (!s || *s <= 0)
      return finish(LoopStatus::NotCandidate,
                    "non-constant or non-positive step");
  }
  {
    std::vector<const VarDecl*> bound_vars;
    collectVars(*loop.lower, bound_vars);
    collectVars(*loop.upper, bound_vars);
    if (loop.step) collectVars(*loop.step, bound_vars);
    for (const VarDecl* d : bound_vars) {
      auto it = body.scalars.find(d);
      if (it != body.scalars.end() && it->second.may_write)
        return finish(LoopStatus::NotCandidate, "loop-variant bounds");
      auto ita = body.arrays.find(d);
      if (ita != body.arrays.end() && !ita->second.writes.empty())
        return finish(LoopStatus::NotCandidate, "loop-variant bounds");
    }
  }

  // ---------------- scalars ----------------
  auto reductions = recognizeReductions(loop);
  for (const auto& [decl, eff] : body.scalars) {
    if (!eff.may_write) continue;
    auto rit = reductions.find(decl);
    if (rit != reductions.end()) {
      plan.reductions.push_back({decl, rit->second});
      continue;
    }
    if (!eff.exposed_read) {
      plan.private_scalars.push_back(decl);
      if (liveAfterLoop(decl, loop)) {
        if (eff.must_write) {
          plan.copy_out_scalars.push_back(decl);
        } else {
          return finish(
              LoopStatus::Sequential,
              "conditionally-written scalar live after loop");
        }
      }
      continue;
    }
    return finish(LoopStatus::Sequential, "scalar recurrence");
  }

  // ---------------- arrays ----------------
  pb::VarId i_var = vt_.idFor(loop.index_decl);
  std::vector<pb::VarId> aux1, aux2;
  pb::VarId i1 = vt_.fresh(VarKind::Index, "@i1");
  pb::VarId i2 = vt_.fresh(VarKind::Index, "@i2");
  pb::System b1 = boundsFor(loop, i1, &aux1);
  pb::System b2 = boundsFor(loop, i2, &aux2);
  pb::System order;
  {
    pb::LinExpr lt = pb::LinExpr::var(i2);
    lt -= pb::LinExpr::var(i1);
    lt.setConstant(lt.constant() - 1);
    order.addGE0(std::move(lt));  // i1 <= i2 - 1
  }
  ParamFilter pf{&vt_, {i_var, i1, i2}};
  for (pb::VarId a : aux1) pf.eliminate_always.insert(a);
  for (pb::VarId a : aux2) pf.eliminate_always.insert(a);

  struct TestResult {
    bool ct = true;        // compile-time independent
    Pred cond;             // run-time independence condition (default true)
    bool hopeless = false; // unconditional dependence found
  };

  // Cross-iteration emptiness test between guarded lists A (writes) and B.
  auto testPairs = [&](const GuardedList& A, const GuardedList& B,
                       bool flow_only) {
    TestResult res;
    for (const auto& a : A) {
      for (const auto& b : B) {
        int norders = flow_only ? 1 : 2;
        for (int ord = 0; ord < norders; ++ord) {
          pb::VarId ia = ord == 0 ? i1 : i2;
          pb::VarId ib = ord == 0 ? i2 : i1;
          for (const auto& pa : a.section.pieces()) {
            for (const auto& pb_ : b.section.pieces()) {
              pb::System sys = pa;
              sys.substitute(i_var, pb::LinExpr::var(ia));
              pb::System sysb = pb_;
              sysb.substitute(i_var, pb::LinExpr::var(ib));
              sys.conjoin(sysb);
              sys.conjoin(b1);
              sys.conjoin(b2);
              sys.conjoin(order);
              if (!sys.normalize() || !sys.feasible()) continue;
              // Dependence possible: assemble the independence condition.
              Pred g = a.guard && b.guard;
              if (g.isFalse()) continue;  // contradictory guards: no dep
              Pred piece_cond = Pred::never();
              if (!g.isTrue()) {
                piece_cond = piece_cond || !g;
                plan.used_predicates = true;
              }
              if (cfg_.extraction) {
                pb::System proj = sys;
                if (proj.projectOnto(
                        [&pf](pb::VarId v) { return pf.keep(v); })) {
                  proj = gistAgainstContext(proj);
                  if (auto cp = systemToPred(proj)) {
                    if (!cp->isTrue()) {
                      piece_cond = piece_cond || !(*cp);
                      plan.used_extraction = true;
                    }
                  }
                }
              }
              if (piece_cond.isTrue()) continue;  // tautology: no dep
              if (piece_cond.isFalse()) {
                res.hopeless = true;
                res.ct = false;
                res.cond = Pred::never();
                return res;
              }
              res.ct = false;
              res.cond = res.cond && piece_cond;
            }
          }
        }
      }
    }
    return res;
  };

  Pred total_test = Pred::always();
  bool needs_runtime = false;

  for (const auto& [decl, as] : body.arrays) {
    if (as.writes.empty() && !as.approximate) continue;  // read-only array

    GuardedList Wl = loopInvariantList(as.writes, loop, body, false);
    GuardedList Rl = loopInvariantList(as.reads, loop, body, false);
    GuardedList El = loopInvariantList(as.exposed, loop, body, false);
    GuardedList MWl = loopInvariantList(as.must_writes, loop, body, true);

    // Attribution for the evaluation's category labels: a test passing
    // over guarded pieces relied on predicated values (and, when
    // embedding is on, on their embedded constraints — an embedded
    // contradiction makes the dependence system infeasible before the
    // guard is ever inspected below).
    for (const GuardedList* l : {&Wl, &Rl, &El, &MWl}) {
      for (const auto& g : *l) {
        if (reshape_pred_keys_.count(g.guard.key())) plan.used_reshape = true;
        if (!g.guard.isTrue()) plan.used_predicates = true;
      }
    }

    GuardedList RWl = Rl;
    appendGuarded(RWl, Wl);
    TestResult indep = testPairs(Wl, RWl, /*flow_only=*/false);
    if (indep.ct) continue;  // independent at compile time

    // Try privatization: no cross-iteration flow into exposed reads.
    TestResult priv = testPairs(Wl, El, /*flow_only=*/true);
    bool copy_in = !El.empty();
    bool copy_out = false;
    bool copy_ok = true;
    // Exposed reads require copy-in privatization, which the baseline
    // configuration does not attempt.
    if (!cfg_.copy_in_privatization && !El.empty()) copy_ok = false;
    if (liveAfterLoop(decl, loop)) {
      copy_out = true;
      copy_in = true;  // whole-array write-back requires initialized copies
      // Every iteration must write the same, fully-covered region.
      bool mentions_i = false;
      for (const auto& g : Wl)
        for (const auto& piece : g.section.pieces())
          for (pb::VarId v : piece.usedVars())
            if (v == i_var) mentions_i = true;
      if (mentions_i) {
        copy_ok = false;
      } else {
        pb::Set wp = unguardedUnion(Wl);
        GuardedList mw_true;
        for (const auto& m : MWl)
          if (m.guard.isTrue()) mw_true.push_back(m);
        pb::Set mt = unguardedUnion(mw_true);
        pb::Set diff = wp.subtract(mt);
        if (!diff.exact() || !diff.isEmpty()) copy_ok = false;
      }
    }
    if (priv.ct && copy_ok) {
      plan.privatized.push_back({decl, copy_in, copy_out});
      plan.priv_used = true;
      plan.used_predicates |= cfg_.predicates;
      continue;
    }

    if (cfg_.runtime_tests) {
      if (!indep.hopeless && !indep.cond.isFalse() &&
          evaluableAtLoopEntry(indep.cond, body)) {
        total_test = total_test && indep.cond;
        needs_runtime = true;
        continue;
      }
      if (!priv.hopeless && copy_ok && !priv.cond.isFalse() &&
          evaluableAtLoopEntry(priv.cond, body)) {
        total_test = total_test && priv.cond;
        plan.privatized.push_back({decl, copy_in, copy_out});
        plan.priv_used = true;
        needs_runtime = true;
        continue;
      }
    }
    std::string name(program_.interner.str(decl->name));
    return finish(LoopStatus::Sequential,
                  "loop-carried dependence on array '" + name + "'");
  }

  plan.used_embedding = plan.used_predicates && cfg_.embedding;
  if (!needs_runtime || total_test.isTrue()) {
    return finish(LoopStatus::Parallel);
  }
  plan.runtime_test = total_test.simplify(vt_);
  if (plan.runtime_test.isTrue()) return finish(LoopStatus::Parallel);
  return finish(LoopStatus::RuntimeTest);
}

RegionSummary Analyzer::promoteLoop(const ForStmt& loop,
                                    const RegionSummary& body) {
  RegionSummary out;
  out.has_sink = body.has_sink;
  out.degraded = body.degraded;
  pb::VarId i_var = vt_.idFor(loop.index_decl);
  std::vector<pb::VarId> aux;
  pb::System bounds = boundsFor(loop, i_var, &aux);
  auto keepNotIter = [&](pb::VarId v) {
    if (v == i_var) return false;
    for (pb::VarId a : aux)
      if (v == a) return false;
    return true;
  };

  // Trip-count provability (for scalar must-writes; array must-write
  // sections self-guard through their lb <= i <= ub constraints, which
  // make the section empty exactly when the loop would not run).
  bool provably_executes = false;
  {
    auto lk = tryConstInt(*loop.lower);
    auto uk = tryConstInt(*loop.upper);
    if (lk && uk) {
      provably_executes = *lk <= *uk;
    } else {
      auto la = affineOf(*loop.lower);
      auto ua = affineOf(*loop.upper);
      if (la && ua) {
        pb::System gt;
        pb::LinExpr e = *la - *ua;
        e.setConstant(e.constant() - 1);
        gt.addGE0(std::move(e));  // lb >= ub + 1
        provably_executes = !gt.feasible();
      }
    }
  }

  // Per-loop iteration-instance variables for the exposed-read promotion.
  pb::VarId e_i2 = vt_.fresh(VarKind::Index, "@e2");
  pb::VarId e_i1 = vt_.fresh(VarKind::Index, "@e1");
  std::vector<pb::VarId> eaux1, eaux2;
  pb::System eb1 = boundsFor(loop, e_i1, &eaux1);
  pb::System eb2 = boundsFor(loop, e_i2, &eaux2);

  for (const auto& [decl, as] : body.arrays) {
    ArraySummary& dst = out.arrayFor(decl);
    dst.approximate = as.approximate;

    auto promoteMay = [&](const GuardedList& src, GuardedList& d,
                          bool is_must_dir) {
      GuardedList inv = loopInvariantList(src, loop, body, is_must_dir);
      for (auto& g : inv) {
        g.section.constrain(bounds);
        g.section.projectOnto(keepNotIter);
        if (g.section.isEmpty()) continue;
        d.push_back(std::move(g));
      }
    };
    promoteMay(as.reads, dst.reads, false);
    promoteMay(as.writes, dst.writes, false);

    // Must-writes: exact projection only. No trip-count guard is needed
    // on the section — the conjoined lb <= i <= ub constraints make the
    // projected section empty (as a parameterized set) whenever the loop
    // would execute zero iterations.
    GuardedList mw_inv = loopInvariantList(as.must_writes, loop, body, true);
    for (auto& g : mw_inv) {
      pb::Set s = g.section;
      s.constrain(bounds);
      bool was_exact = s.exact();
      s.projectOnto(keepNotIter);
      if (!was_exact || !s.exact() || s.isEmpty()) continue;
      dst.must_writes.push_back({g.guard, std::move(s)});
    }

    // Exposed reads: E(i2) minus must-writes of earlier iterations.
    GuardedList e_inv = loopInvariantList(as.exposed, loop, body, false);
    for (auto& g : e_inv) {
      pb::Set e2 = g.section;
      e2.substitute(i_var, pb::LinExpr::var(e_i2));
      e2.constrain(eb2);
      for (const auto& m : mw_inv) {
        if (e2.isEmpty()) break;
        if (!g.guard.implies(m.guard, vt_)) continue;
        pb::Set m1 = m.section;
        m1.substitute(i_var, pb::LinExpr::var(e_i1));
        pb::System before = eb1;
        pb::LinExpr lt = pb::LinExpr::var(e_i2);
        lt -= pb::LinExpr::var(e_i1);
        lt.setConstant(lt.constant() - 1);
        before.addGE0(std::move(lt));  // e_i1 < e_i2
        m1.constrain(before);
        bool was_exact = m1.exact();
        m1.projectOnto([&](pb::VarId v) {
          if (v == e_i1) return false;
          for (pb::VarId a : eaux1)
            if (v == a) return false;
          return true;
        });
        // Only subtract integer-exact projections (subtracting an
        // over-approximation would under-approximate E).
        if (!was_exact || !m1.exact()) continue;
        e2 = e2.subtract(m1);
      }
      if (e2.isEmpty()) continue;
      // Optional predicate extraction: under what parameter condition is
      // anything still exposed?
      Pred guard = g.guard;
      if (cfg_.extraction) {
        Pred cond = Pred::never();
        bool renderable = true;
        for (const auto& piece : e2.pieces()) {
          pb::System proj = piece;
          ParamFilter pf{&vt_, {i_var, e_i1, e_i2}};
          for (pb::VarId a : eaux1) pf.eliminate_always.insert(a);
          for (pb::VarId a : eaux2) pf.eliminate_always.insert(a);
          if (!proj.projectOnto([&pf](pb::VarId v) { return pf.keep(v); }))
            continue;  // piece infeasible after all
          proj = gistAgainstContext(proj);
          auto cp = systemToPred(proj);
          if (!cp) {
            renderable = false;
            break;
          }
          cond = cond || *cp;
        }
        if (renderable && !cond.isTrue()) guard = guard && cond;
      }
      e2.projectOnto([&](pb::VarId v) {
        if (v == e_i2) return false;
        for (pb::VarId a : eaux2)
          if (v == a) return false;
        return true;
      });
      if (e2.isEmpty()) continue;
      if (!cfg_.predicates && !guard.isTrue()) guard = Pred::always();
      dst.exposed.push_back({std::move(guard), std::move(e2)});
    }
  }

  // Scalars.
  for (const auto& [decl, eff] : body.scalars) {
    if (decl == loop.index_decl) continue;  // scoped to the loop
    ScalarEffect& dst = out.scalarFor(decl);
    dst.may_write |= eff.may_write;
    dst.any_read |= eff.any_read;
    dst.exposed_read |= eff.exposed_read;
    dst.must_write |= eff.must_write && provably_executes;
  }
  return out;
}

RegionSummary Analyzer::analyzeFor(const ForStmt& loop) {
  // After an earlier exhaustion, stop spending analysis work entirely:
  // plan the whole nest sequentially and summarize it conservatively.
  if (degrade_rest_) {
    degradePlan(loop);
    degradeUnplannedLoops(*loop.body);
    RegionSummary out = conservativeBlockSummary(*loop.body, nullptr);
    noteConservativeVars(*loop.lower, out);
    noteConservativeVars(*loop.upper, out);
    if (loop.step) noteConservativeVars(*loop.step, out);
    out.scalars.erase(loop.index_decl);
    return out;
  }

  if (AnalysisBudget* b = AnalysisBudget::current()) b->beginLoop();
  // Push this loop's bounds as context for the analysis of nested loops,
  // but pop before planning this loop itself (its own index is
  // substituted by iteration instances in the dependence systems).
  loop_ctx_.push_back(boundsFor(loop, vt_.idFor(loop.index_decl), nullptr));
  RegionSummary body;
  try {
    body = analyzeBlock(*loop.body);
  } catch (const BudgetExceeded& e) {
    recordExhaustion(e);
    body = conservativeBlockSummary(*loop.body, nullptr);
  }
  loop_ctx_.pop_back();

  // Fresh per-loop FM slice for planning this loop (the body's slice was
  // consumed by any nested loops).
  if (AnalysisBudget* b = AnalysisBudget::current()) b->beginLoop();
  try {
    planLoop(loop, body);
  } catch (const BudgetExceeded& e) {
    recordExhaustion(e);
    degradePlan(loop);
  }
  // Loops the conservative body fallback skipped also degrade.
  degradeUnplannedLoops(*loop.body);

  RegionSummary promoted;
  try {
    promoted = promoteLoop(loop, body);
  } catch (const BudgetExceeded& e) {
    recordExhaustion(e);
    promoted = conservativeBlockSummary(*loop.body, loop.index_decl);
  }
  // Bound expressions are read at loop entry.
  RegionSummary bounds_reads;
  collectReads(*loop.lower, bounds_reads);
  collectReads(*loop.upper, bounds_reads);
  if (loop.step) collectReads(*loop.step, bounds_reads);
  seqCompose(bounds_reads, std::move(promoted));
  return bounds_reads;
}

}  // namespace

AnalysisResult analyzeProgram(Program& program, const AnalysisConfig& config) {
  Analyzer analyzer(program, config);
  return analyzer.run();
}

}  // namespace padfa
