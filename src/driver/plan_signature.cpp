#include "driver/plan_signature.h"

namespace padfa {

namespace {

void appendDecl(std::string& out, const VarDecl* d) {
  if (!d) {
    out += "null";
    return;
  }
  out += std::to_string(d->name.id);
  out += '#';
  out += std::to_string(d->uid);
}

}  // namespace

void appendPlanSignature(std::string& out, const LoopPlan* p) {
  if (!p) {
    out += "<none>";
    return;
  }
  out += loopStatusName(p->status);
  out += " test=";
  out += p->runtime_test.key();
  out += " degraded=";
  out += p->degraded ? '1' : '0';
  out += ':';
  out += p->degrade_cause;
  out += " reason=";
  out += p->reason;
  out += " priv=[";
  for (const auto& pa : p->privatized) {
    appendDecl(out, pa.array);
    out += pa.copy_in ? "+ci" : "";
    out += pa.copy_out ? "+co" : "";
    out += ' ';
  }
  out += "] ps=[";
  for (const VarDecl* d : p->private_scalars) {
    appendDecl(out, d);
    out += ' ';
  }
  out += "] co=[";
  for (const VarDecl* d : p->copy_out_scalars) {
    appendDecl(out, d);
    out += ' ';
  }
  out += "] red=[";
  for (const auto& r : p->reductions) {
    appendDecl(out, r.scalar);
    out += ':';
    out += std::to_string(static_cast<int>(r.op));
    out += ' ';
  }
  out += "] syncs=[";
  for (const auto& s : p->syncs) {
    out += s.source ? s.source->loc.str() : "?";
    out += "->";
    out += s.sink ? s.sink->loc.str() : "?";
    out += ":d";
    out += std::to_string(s.distance);
    out += s.eliminated ? "-elim" : "";
    out += ' ';
  }
  out += "] flags=";
  out += p->used_predicates ? 'P' : '.';
  out += p->used_embedding ? 'E' : '.';
  out += p->used_extraction ? 'X' : '.';
  out += p->used_reshape ? 'R' : '.';
  out += p->priv_used ? 'V' : '.';
  // Appended only when the value-range pass touched the plan, so every
  // signature under PADFA_NO_VRA is byte-identical to the pre-VRA format.
  if (p->vra_action != VraAction::None) {
    out += " vra=";
    out += vraActionName(p->vra_action);
  }
}

std::string planSignature(const CompiledProgram& cp) {
  std::string out;
  for (const LoopNode* node : cp.loops.allLoops()) {
    out += node->loop->loop_id;
    out += " outcome=";
    out += loopOutcomeName(classifyLoop(cp, node->loop));
    out += "\n  base: ";
    appendPlanSignature(out, cp.base.planFor(node->loop));
    out += "\n  pred: ";
    appendPlanSignature(out, cp.pred.planFor(node->loop));
    out += '\n';
  }
  for (const AnalysisResult* ar : {&cp.base, &cp.pred}) {
    out += ar == &cp.base ? "base" : "pred";
    out += " degraded_globally=";
    out += ar->degraded_globally ? '1' : '0';
    out += " causes=[";
    for (const auto& [cause, n] : ar->exhaustion_causes)
      out += cause + ":" + std::to_string(n) + " ";
    out += "]\n";
  }
  return out;
}

}  // namespace padfa
