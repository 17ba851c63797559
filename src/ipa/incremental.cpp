#include "ipa/incremental.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "driver/plan_signature.h"
#include "ipa/callgraph.h"
#include "ipa/fingerprint.h"
#include "store/deep_codec.h"
#include "support/perf_stats.h"

namespace padfa::ipa {

namespace {

/// Replay state for one analysis kind (base or pred). The two kinds run
/// concurrently over the same immutable Program; each KindState is
/// filled during single-threaded setup and then used by exactly one
/// analysis thread (its `load` hands the plans over, and it fills its
/// own `replayed` out-set).
struct KindState {
  /// Replay candidates: store bytes that decoded cleanly against the
  /// fresh AST, plus the pre-decoded (rebound) plans.
  std::map<const ProcDecl*, std::string> bytes;
  std::map<const ProcDecl*, std::vector<LoopPlan>> plans;
  std::set<const ProcDecl*> replayed;
  SummaryPreload preload;
};

/// Probe the store for every procedure under one kind; keep only records
/// whose plan half decodes against the new AST (a decode failure is
/// treated as a miss — the procedure just stays dirty).
void prepareKind(KindState& st, uint8_t kind, const Program& program,
                 const ProcFingerprints& fps,
                 const store::SummaryStore& store, uint64_t& hits,
                 uint64_t& misses) {
  for (const auto& p : program.procs) {
    const ProcDecl* proc = p.get();
    auto rec = store.getDeepProc(fps.deep.at(proc), kind);
    if (!rec) {
      ++misses;
      continue;
    }
    std::vector<LoopPlan> plans;
    std::string err;
    if (!store::decodeDeepProcPlans(program, *proc, *rec, plans, err)) {
      ++misses;
      continue;
    }
    ++hits;
    st.bytes[proc] = std::move(*rec);
    st.plans[proc] = std::move(plans);
  }
  for (const auto& [proc, bytes] : st.bytes) st.preload.replay.insert(proc);
  st.preload.replayed = &st.replayed;
  st.preload.load = [&program, &st](const ProcDecl* proc, VarTable& vt,
                                    RegionSummary& out,
                                    std::vector<LoopPlan>& plans) {
    std::string err;
    if (!store::decodeDeepProcSummary(program, *proc, st.bytes.at(proc), vt,
                                      out, err))
      return false;
    plans = std::move(st.plans.at(proc));
    return true;
  };
}

/// Persist fresh records for procedures whose (deep_fp, kind) key is not
/// in the store yet. encodeDeepProc is fail-soft: degraded or otherwise
/// non-rebindable state is simply not persisted.
void persistKind(const Program& program, const AnalysisResult& result,
                 const ProcFingerprints& fps, uint8_t kind,
                 store::SummaryStore& store) {
  for (const auto& p : program.procs) {
    const ProcDecl* proc = p.get();
    uint64_t fp = fps.deep.at(proc);
    if (store.getDeepProc(fp, kind)) continue;
    auto sit = result.proc_summaries.find(proc);
    if (sit == result.proc_summaries.end()) continue;
    store::DeepEncodeInput in;
    in.program = &program;
    in.proc = proc;
    in.summary = &sit->second;
    in.vars = &result.vars;
    bool complete = true;
    for (const ForStmt* loop : store::procLoopsInOrder(*proc)) {
      const LoopPlan* plan = result.planFor(loop);
      if (!plan) {
        complete = false;
        break;
      }
      in.plans.push_back(plan);
    }
    if (!complete) continue;
    std::string bytes, err;
    if (encodeDeepProc(in, bytes, err))
      store.putDeepProc(fp, kind, std::move(bytes));
  }
}

/// PADFA_IPA_CHECK tripwire: byte-compare the incremental result's plan
/// signature against a cold compile of the same bytes; abort on any
/// divergence so CI catches a broken replay immediately instead of
/// serving wrong-but-plausible plans.
void checkColdEquivalence(const std::string& source,
                          const BudgetLimits& limits,
                          const CompiledProgram& incremental) {
  DiagEngine diags;
  auto cold = compileSource(source, diags, limits);
  if (!cold) {
    std::fprintf(stderr,
                 "padfa-ipa: PADFA_IPA_CHECK cold compile failed where "
                 "incremental compile succeeded\n");
    std::abort();
  }
  std::string inc_sig = planSignature(incremental);
  std::string cold_sig = planSignature(*cold);
  if (inc_sig == cold_sig) return;
  std::fprintf(stderr,
               "padfa-ipa: PADFA_IPA_CHECK divergence — incremental plan "
               "signature differs from cold run\n--- incremental ---\n%s\n"
               "--- cold ---\n%s\n",
               inc_sig.c_str(), cold_sig.c_str());
  std::abort();
}

}  // namespace

std::optional<CompiledProgram> compileSourceIncremental(
    const std::string& source, DiagEngine& diags, const BudgetLimits& limits,
    store::SummaryStore& store, IncrementalInfo* info) {
  auto cp = runFrontend(source, diags);
  if (!cp) return std::nullopt;
  const Program& prog = *cp->program;

  // Replay and persist are only sound for ungoverned, cache-enabled
  // compiles (same contract as the daemon's warm path); otherwise the
  // same stages run without the probe and the persist, and every
  // procedure counts as analyzed.
  const bool incremental =
      !BudgetLimits::fromEnv(limits).governed() && cachesEnabled();
  ProcFingerprints fps;
  KindState base_st, pred_st;
  uint64_t fp_hits = 0, fp_misses = 0;
  if (incremental) {
    fps = fingerprintProgram(prog, CallGraph::build(prog));
    prepareKind(base_st, store::kDeepKindBase, prog, fps, store, fp_hits,
                fp_misses);
    prepareKind(pred_st, store::kDeepKindPred, prog, fps, store, fp_hits,
                fp_misses);
  }

  runAnalysisPair(*cp, limits, incremental ? &base_st.preload : nullptr,
                  incremental ? &pred_st.preload : nullptr);

  // Persist before refinement: the store only ever sees pre-upgrade
  // plans, so warm replays re-derive the same Doacross upgrades and VRA
  // promotions a cold run would (see dataflow/doacross.h,
  // dataflow/vra_promote.h).
  if (incremental) {
    persistKind(prog, cp->base, fps, store::kDeepKindBase, store);
    persistKind(prog, cp->pred, fps, store::kDeepKindPred, store);
  }

  runRefinement(*cp, limits);

  size_t replayed_both = 0;
  std::vector<std::string> dirty_names, replayed_names;
  for (const auto& p : prog.procs) {
    bool full = base_st.replayed.count(p.get()) &&
                pred_st.replayed.count(p.get());
    std::string name(prog.interner.str(p->name));
    if (full) {
      ++replayed_both;
      replayed_names.push_back(std::move(name));
    } else {
      dirty_names.push_back(std::move(name));
    }
  }

  if (incremental) {
    auto& counters = PerfStats::instance().incremental;
    counters.runs.fetch_add(1, std::memory_order_relaxed);
    counters.procs_analyzed.fetch_add(dirty_names.size(),
                                      std::memory_order_relaxed);
    counters.procs_replayed.fetch_add(replayed_both,
                                      std::memory_order_relaxed);
    counters.fingerprint_hits.fetch_add(fp_hits, std::memory_order_relaxed);
    counters.fingerprint_misses.fetch_add(fp_misses,
                                          std::memory_order_relaxed);
    counters.last_dirty_size.store(dirty_names.size(),
                                   std::memory_order_relaxed);
  }

  if (info) {
    info->procs_total = prog.procs.size();
    info->procs_replayed = replayed_both;
    info->procs_analyzed = dirty_names.size();
    info->dirty = std::move(dirty_names);
    info->replayed = std::move(replayed_names);
    info->fingerprint_hits = fp_hits;
    info->fingerprint_misses = fp_misses;
    info->incremental = incremental;
  }

  const char* check = std::getenv("PADFA_IPA_CHECK");
  if (check && *check && replayed_both > 0)
    checkColdEquivalence(source, limits, *cp);

  return cp;
}

}  // namespace padfa::ipa
