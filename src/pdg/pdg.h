// Program Dependence Graph: the data/control dependences the analysis
// proves, materialized as an explicit per-procedure graph (DESIGN.md §11).
//
// Nodes are the statement-level CFG nodes (cfg.h). Edges:
//
//  * Control — from the if-condition / for-header (or procedure entry)
//    that decides whether a node executes, labeled with the branch.
//  * Flow / Anti / Output — data dependences, from two sources:
//      - reaching definitions (reaching.h): def->use flow edges; scalar
//        edges are kill-exact, array edges are subscript-blind may-deps
//        (`approx`) and never claim to be loop-carried;
//      - the shared Presburger conflict systems (audit/loop_conflicts.h):
//        loop-carried array dependences per loop, with a constant
//        iteration `distance` when the conflict system forces one and
//        `exact` when both accesses were modeled exactly.
//    Scalar anti/output dependences carried by a loop are emitted from
//    the assigned/used sets (may-deps; privatization discharges them).
//
// Determinism: node ids are AST pre-order, edges are sorted by a total
// order over (src, dst, kind, variable sema-uid, carrier loop id), so
// DOT/JSON exports are byte-stable across runs and address layouts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/region.h"
#include "pdg/cfg.h"
#include "pdg/dataflow.h"

namespace padfa {

enum class PdgEdgeKind : uint8_t { Control, Flow, Anti, Output };

std::string_view pdgEdgeKindName(PdgEdgeKind k);

struct PdgEdge {
  uint32_t src = 0;
  uint32_t dst = 0;
  PdgEdgeKind kind = PdgEdgeKind::Flow;
  /// The variable carrying a data dependence (null for control edges).
  const VarDecl* var = nullptr;
  /// Loop-carried? Array carried edges come only from the Presburger
  /// conflict systems; scalar carried edges from reaching definitions
  /// (flow) and assigned/used sets (anti/output).
  bool carried = false;
  const ForStmt* carrier = nullptr;  // the carrying loop (carried only)
  /// Constant iteration distance, when the conflict system forces one.
  std::optional<int64_t> distance;
  /// Dependence existence modeled exactly (affine subscripts, exact
  /// context). Only conflict-system edges can be exact.
  bool exact = false;
  /// Subscript-blind array may-dependence from reaching definitions.
  bool approx = false;
  /// Branch label for control edges.
  CtrlBranch branch = CtrlBranch::None;
};

struct PdgStats {
  size_t nodes = 0;
  size_t control = 0, flow = 0, anti = 0, output = 0;
  size_t carried = 0;
  size_t conflict_pairs_tested = 0;
  size_t dataflow_sweeps = 0;  // fixpoint sweeps across all procedures
};

struct ProcPdg {
  const ProcDecl* proc = nullptr;
  ProcCfg cfg;
  /// Sorted deterministically (see header comment).
  std::vector<PdgEdge> edges;
};

struct ProgramPdg {
  std::vector<ProcPdg> procs;  // program order
  PdgStats stats;
};

/// Build the whole-program PDG. Sema must have run; `loops` is the loop
/// forest the carried-dependence scans iterate over.
ProgramPdg buildPdg(const Program& program, const LoopTree& loops);

/// Is CFG node `n` (transitively) inside loop `loop`?
bool nodeInLoop(const CfgNode& n, const ForStmt* loop, const LoopTree& loops);

/// Deterministic DOT rendering of the whole-program PDG.
std::string pdgToDot(const ProgramPdg& pdg, const Program& program);

/// Deterministic JSON rendering (nodes keyed by "proc:index" uids, vars
/// by sema uids).
std::string pdgToJson(const ProgramPdg& pdg, const Program& program);

/// One-line node label for exports and slice listings.
std::string pdgNodeLabel(const CfgNode& n, const Program& program);

}  // namespace padfa
