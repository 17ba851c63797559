#include "pdg/pdg.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "audit/loop_conflicts.h"
#include "pdg/reaching.h"

namespace padfa {

std::string_view pdgEdgeKindName(PdgEdgeKind k) {
  switch (k) {
    case PdgEdgeKind::Control: return "control";
    case PdgEdgeKind::Flow: return "flow";
    case PdgEdgeKind::Anti: return "anti";
    case PdgEdgeKind::Output: return "output";
  }
  return "?";
}

bool nodeInLoop(const CfgNode& n, const ForStmt* loop, const LoopTree& loops) {
  for (const ForStmt* cur = n.loop; cur;) {
    if (cur == loop) return true;
    const LoopNode* ln = loops.nodeFor(cur);
    cur = (ln && ln->parent) ? ln->parent->loop : nullptr;
  }
  return false;
}

namespace {

class PdgBuilder {
 public:
  PdgBuilder(const Program& program, const LoopTree& loops, PdgStats& stats)
      : program_(program), loops_(loops), stats_(stats) {}

  ProcPdg build(const ProcDecl& proc) {
    ProcPdg out;
    out.proc = &proc;
    out.cfg = buildCfg(program_, proc);
    cfg_ = &out.cfg;
    edges_.clear();

    addControlEdges();
    addReachingFlowEdges(proc);
    for (const LoopNode* ln : loops_.allLoops())
      if (ln->proc == &proc) addCarriedEdges(*ln);

    for (auto& [key, e] : edges_) out.edges.push_back(e);
    stats_.nodes += out.cfg.nodes.size();
    for (const PdgEdge& e : out.edges) {
      switch (e.kind) {
        case PdgEdgeKind::Control: ++stats_.control; break;
        case PdgEdgeKind::Flow: ++stats_.flow; break;
        case PdgEdgeKind::Anti: ++stats_.anti; break;
        case PdgEdgeKind::Output: ++stats_.output; break;
      }
      if (e.carried) ++stats_.carried;
    }
    return out;
  }

 private:
  // Total order on edges; doubles as the dedup key. Carrier loops are
  // keyed by their stable Sema loop_id, never by pointer.
  using Key = std::tuple<uint32_t, uint32_t, int, uint64_t, std::string>;

  Key keyOf(const PdgEdge& e) const {
    return {e.src, e.dst, static_cast<int>(e.kind),
            e.var ? uint64_t(e.var->uid) + 1 : 0,
            e.carrier ? e.carrier->loop_id : std::string()};
  }

  void addEdge(PdgEdge e) {
    auto [it, inserted] = edges_.emplace(keyOf(e), e);
    if (inserted) return;
    PdgEdge& old = it->second;
    // Several access pairs can induce the same (src, dst, var, carrier)
    // edge: one exact witness makes the dependence definite, and the
    // distance survives only if every witness agrees on it.
    old.exact |= e.exact;
    old.approx &= e.approx;
    if (old.distance != e.distance) old.distance.reset();
  }

  void addControlEdges() {
    for (const CfgNode& n : cfg_->nodes) {
      if (n.ctrl_parent == kNoNode || n.kind == CfgNodeKind::Exit) continue;
      PdgEdge e;
      e.src = n.ctrl_parent;
      e.dst = n.id;
      e.kind = PdgEdgeKind::Control;
      e.branch = n.ctrl_branch;
      addEdge(e);
    }
  }

  void addReachingFlowEdges(const ProcDecl& proc) {
    ReachingDefs full(*cfg_);
    full.run();
    ReachingDefs acyclic(*cfg_, allBackEdges(*cfg_));
    acyclic.run();
    stats_.dataflow_sweeps += full.stats().sweeps + acyclic.stats().sweeps;

    // One extra solution per loop, skipping only that loop's back edges:
    // a def->use pair the full solution reaches but the L-skipping one
    // does not is carried by L *specifically*. (The all-back-edges
    // solution alone cannot attribute a dependence to the right loop:
    // a scalar accumulated by an inner loop and read afterwards would
    // look carried by the outer loop too.)
    std::vector<std::pair<const ForStmt*, ReachingDefs>> per_loop;
    for (const LoopNode* ln : loops_.allLoops()) {
      if (ln->proc != &proc) continue;
      per_loop.emplace_back(ln->loop,
                            ReachingDefs(*cfg_, backEdgesOf(*cfg_, ln->loop)));
      per_loop.back().second.run();
      stats_.dataflow_sweeps += per_loop.back().second.stats().sweeps;
    }

    for (const CfgNode& n : cfg_->nodes) {
      for (const VarDecl* use : n.uses) {
        for (uint32_t def = 0; def < full.numDefs(); ++def) {
          if (full.defVar(def) != use) continue;
          if (!full.reachingIn(n.id).test(def)) continue;
          PdgEdge e;
          e.src = full.defNode(def);
          e.dst = n.id;
          e.kind = PdgEdgeKind::Flow;
          e.var = use;
          if (use->isArray()) {
            // Subscript-blind array may-dep: usable for slicing, but it
            // must never claim "loop-carried" — that verdict belongs to
            // the conflict systems, which can *disprove* it.
            e.approx = true;
            addEdge(e);
            continue;
          }
          // Loop-independent edge when the def reaches without any back
          // edge; one carried edge per loop whose iteration the value
          // demonstrably crosses.
          if (acyclic.reachingIn(n.id).test(def)) addEdge(e);
          for (auto& [loop, rd] : per_loop) {
            if (rd.reachingIn(n.id).test(def)) continue;
            PdgEdge c = e;
            c.carried = true;
            c.carrier = loop;
            addEdge(c);
          }
        }
      }
    }
  }

  /// Loop-carried dependences of one loop, from the shared Presburger
  /// conflict systems (arrays) and assigned-scalar sets (scalars).
  void addCarriedEdges(const LoopNode& ln) {
    LoopConflictScanner scanner(program_, ln.loop, ln.proc);
    scanner.scan();
    // Exactness matches the auditor's Unsound discipline: the loop's own
    // bounds plus both accesses modeled exactly. (Access-cap overflow
    // hides *other* accesses; it does not weaken a found pair.)
    const bool loop_exact = scanner.loopExact();
    const auto& acc = scanner.accesses();

    for (size_t i = 0; i < acc.size(); ++i) {
      for (size_t j = i; j < acc.size(); ++j) {
        const ConflictAccess& a = acc[i];
        const ConflictAccess& b = acc[j];
        if (a.root != b.root || (!a.write && !b.write)) continue;
        auto eq = LoopConflictScanner::pairEq(a, b);
        bool exact =
            LoopConflictScanner::pairExactly(a, b, eq) && loop_exact;
        tryCarried(scanner, a, b, eq, exact, ln.loop);
        if (i != j) tryCarried(scanner, b, a, eq, exact, ln.loop);
      }
    }

    addScalarCarried(scanner, ln.loop);
  }

  void tryCarried(LoopConflictScanner& scanner, const ConflictAccess& a,
                  const ConflictAccess& b, LoopConflictScanner::PairEq eq,
                  bool exact, const ForStmt* loop) {
    ++stats_.conflict_pairs_tested;
    auto geo = scanner.geometry(a, b, eq);
    if (!geo.feasible) return;
    // Anchors are statements of the audited procedure; the rare access
    // with no own CFG node (e.g. evaluated by a hoisted declaration in a
    // nested bare block) is attributed to the loop header rather than
    // dropped — the graph must never lose a carried dependence.
    const CfgNode* sn = cfg_->nodeFor(a.anchor);
    const CfgNode* dn = cfg_->nodeFor(b.anchor);
    if (!sn) sn = cfg_->nodeFor(loop);
    if (!dn) dn = cfg_->nodeFor(loop);
    if (!sn || !dn) return;
    PdgEdge e;
    e.src = sn->id;
    e.dst = dn->id;
    e.kind = a.write ? (b.write ? PdgEdgeKind::Output : PdgEdgeKind::Flow)
                     : PdgEdgeKind::Anti;
    e.var = a.root;
    e.carried = true;
    e.carrier = loop;
    e.distance = geo.distance;
    e.exact = exact;
    addEdge(e);
  }

  /// A scalar assigned AND read in the loop body (and not declared
  /// there, i.e. not iteration-private by scoping) induces carried
  /// output and anti dependences; one representative edge per
  /// (variable, loop) keeps the graph readable. Write-only shared
  /// scalars follow the auditor's last-value treatment and get no edge.
  void addScalarCarried(const LoopConflictScanner& scanner,
                        const ForStmt* loop) {
    std::set<const VarDecl*> read_set;
    collectBodyReads(*loop->body, read_set);
    for (const VarDecl* v : scanner.bodyAssigned()) {
      if (v->isArray() || v->is_loop_index) continue;
      if (scanner.bodyDeclared().count(v)) continue;
      if (!read_set.count(v)) continue;
      const CfgNode* first_def = nullptr;
      const CfgNode* first_use = nullptr;
      for (const CfgNode& n : cfg_->nodes) {
        if (!nodeInLoop(n, loop, loops_)) continue;
        if (!first_def &&
            std::find(n.defs.begin(), n.defs.end(), v) != n.defs.end())
          first_def = &n;
        if (!first_use &&
            std::find(n.uses.begin(), n.uses.end(), v) != n.uses.end())
          first_use = &n;
      }
      if (!first_def) continue;  // assigned only inside callees
      PdgEdge out;
      out.src = out.dst = first_def->id;
      out.kind = PdgEdgeKind::Output;
      out.var = v;
      out.carried = true;
      out.carrier = loop;
      addEdge(out);
      if (first_use) {
        PdgEdge anti;
        anti.src = first_use->id;
        anti.dst = first_def->id;
        anti.kind = PdgEdgeKind::Anti;
        anti.var = v;
        anti.carried = true;
        anti.carrier = loop;
        addEdge(anti);
      }
    }
  }

  const Program& program_;
  const LoopTree& loops_;
  PdgStats& stats_;
  const ProcCfg* cfg_ = nullptr;
  std::map<Key, PdgEdge> edges_;
};

}  // namespace

ProgramPdg buildPdg(const Program& program, const LoopTree& loops) {
  ProgramPdg pdg;
  PdgBuilder builder(program, loops, pdg.stats);
  for (const auto& proc : program.procs)
    pdg.procs.push_back(builder.build(*proc));
  return pdg;
}

}  // namespace padfa
