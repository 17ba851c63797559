// Experiment E12 — Doacross pipelining and the loop scheduler.
//
// Two questions, one harness:
//
//  1. Do the loops the Doacross upgrade rescues from Sequential actually
//     gain from pipelined execution? For every corpus loop planned
//     Doacross: sync requirements before/after redundant-sync
//     elimination, the loop's sequential vs pipelined simulated
//     4-processor time (per-loop profiles, best of 3), the resulting
//     speedup, and the pipelined wall time beside it (informational).
//     Correctness-shaped: the harness aborts unless at least 3 loops
//     speed up in simulated time, the PlanAuditor certifies every
//     Doacross plan, and the race oracle observes zero violations — a
//     "speedup" on an uncertified plan would be racing, not pipelining.
//
//  2. Does the automatic chunk earn its keep on DOALL loops? A
//     triangular DOALL microbenchmark (iteration i costs O(i)) runs
//     twice: with the automatic chunk, and with chunk = trip/T, one
//     block per worker, which is the plain contiguous split. That split
//     eats the imbalance (the worker holding the last block owns the
//     heaviest quarter), so the automatic chunk must beat it on the
//     loop's simulated makespan, which replays the measured thread-CPU
//     cost of each block on T dedicated workers and so does not depend
//     on host load.
//
// Invoke with `--json <path>` for the machine-readable point committed
// under bench/trajectory/.
#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "audit/plan_audit.h"
#include "audit/race_oracle.h"
#include "bench_util.h"
#include "support/table.h"

using namespace padfa;
using namespace padfa::bench;

namespace {

constexpr unsigned kThreads = 4;
constexpr int kReps = 3;

struct DoacrossLoopRow {
  std::string program;
  std::string loop_id;
  uint32_t line = 0;
  int syncs_total = 0;
  int syncs_kept = 0;
  double seq_seconds = 0;
  double doa_seconds = 0;
  double speedup = 0;
  double doa_wall_seconds = 0;
  double wall_speedup = 0;
};

/// Per-loop profile over kReps full-program runs: each loop's best wall
/// time and, separately, its best simulated time.
std::map<const ForStmt*, LoopProfile> profileRun(const CompiledProgram& cp,
                                                 const AnalysisResult* plans) {
  std::map<const ForStmt*, LoopProfile> best;
  for (int rep = 0; rep < kReps; ++rep) {
    InterpOptions opt;
    opt.plans = plans;
    opt.num_threads = plans ? kThreads : 1;
    opt.profile = true;
    for (const auto& [loop, prof] : execute(*cp.program, opt).profiles) {
      auto it = best.try_emplace(loop, prof).first;
      it->second.seconds = std::min(it->second.seconds, prof.seconds);
      it->second.simulated_seconds =
          std::min(it->second.simulated_seconds, prof.simulated_seconds);
    }
  }
  return best;
}

/// Trip of the triangular loop; chunk = kTriangularTrip / kThreads
/// gives each worker one block, a contiguous quarter of the iterations.
constexpr int64_t kTriangularTrip = 256;

std::string triangularSource() {
  const std::string n = std::to_string(kTriangularTrip);
  const std::string last = std::to_string(kTriangularTrip - 1);
  return "proc main() {\n"
         "  real t[" + n + ", " + n + "];\n"
         "  for i = 0 to " + last + " {\n"
         "    for j = 0 to i { t[i, j] = noise(i * " + n + " + j) * 0.5; }\n"
         "  }\n"
         "  sink(t[" + last + ", 0]);\n"
         "}\n";
}

/// Simulated makespan of the triangular loop (its outermost loop) with
/// `chunk` (0 = automatic), best of kReps: the block replay is stable,
/// but the serial prologue and epilogue around it are timed on the wall
/// clock.
double timeTriangular(const CompiledProgram& cp, int64_t chunk) {
  const ForStmt* outer = nullptr;
  for (const LoopNode* node : cp.loops.allLoops())
    if (node->depth == 0) outer = node->loop;
  double best = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    InterpOptions opt;
    opt.plans = &cp.pred;
    opt.num_threads = kThreads;
    opt.chunk = chunk;
    opt.profile = true;
    double sim =
        execute(*cp.program, opt).profiles.at(outer).simulated_seconds;
    if (rep == 0 || sim < best) best = sim;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = extractJsonFlag(&argc, argv);
  int scale = 4;
  for (int i = 1; i < argc; ++i)
    if (std::isdigit(static_cast<unsigned char>(argv[i][0])))
      scale = std::atoi(argv[i]);

  // ---- part 1: corpus Doacross loops ------------------------------
  std::vector<DoacrossLoopRow> rows;
  int unsound = 0, uncertified = 0;
  uint64_t violations = 0;
  for (const CorpusEntry& e : corpus()) {
    CompiledProgram cp = compileOrDie(e, scale);
    bool any_doacross = false;
    for (const auto& [loop, plan] : cp.pred.plans)
      any_doacross |= plan.status == LoopStatus::Doacross;
    if (!any_doacross) continue;

    // Static certification: every Doacross plan must come back
    // discharged-by-sync (or better).
    DiagEngine diags;
    AuditReport audit = auditPlans(*cp.program, cp.pred, diags);
    std::map<const ForStmt*, const LoopAudit*> audit_of;
    for (const auto& la : audit.loops) audit_of[la.loop] = &la;
    unsound += static_cast<int>(audit.count(AuditVerdict::Unsound));

    // Dynamic certification: zero violations modulo the declared syncs.
    RaceOracle oracle(*cp.program, cp.pred);
    InterpOptions ropt;
    ropt.plans = &cp.pred;
    ropt.race = &oracle;
    execute(*cp.program, ropt);
    violations += oracle.violationCount();

    auto seq = profileRun(cp, nullptr);
    auto par = profileRun(cp, &cp.pred);
    for (const LoopNode* node : cp.loops.allLoops()) {
      const LoopPlan* plan = cp.pred.planFor(node->loop);
      if (!plan || plan->status != LoopStatus::Doacross) continue;
      const LoopAudit* la = audit_of.count(node->loop)
                                ? audit_of[node->loop]
                                : nullptr;
      if (!la || (la->verdict != AuditVerdict::DischargedSync &&
                  la->verdict != AuditVerdict::Independent))
        ++uncertified;
      DoacrossLoopRow r;
      r.program = e.name;
      r.loop_id = node->loop->loop_id;
      r.line = node->loop->loc.line;
      r.syncs_total = static_cast<int>(plan->syncs.size());
      r.syncs_kept = static_cast<int>(plan->keptSyncCount());
      r.seq_seconds = seq[node->loop].simulated_seconds;
      r.doa_seconds = par[node->loop].simulated_seconds;
      r.speedup = r.doa_seconds > 0 ? r.seq_seconds / r.doa_seconds : 0;
      r.doa_wall_seconds = par[node->loop].seconds;
      r.wall_speedup = r.doa_wall_seconds > 0
                           ? seq[node->loop].seconds / r.doa_wall_seconds
                           : 0;
      rows.push_back(std::move(r));
    }
  }

  TextTable table({"program", "loop", "syncs", "seq (s)", "doacross (s)",
                   "speedup", "wall (s)", "wall speedup"});
  int sped_up = 0;
  for (const auto& r : rows) {
    if (r.speedup > 1.0) ++sped_up;
    table.addRow({r.program, r.loop_id,
                  std::to_string(r.syncs_total) + "->" +
                      std::to_string(r.syncs_kept),
                  fmtDouble(r.seq_seconds, 4), fmtDouble(r.doa_seconds, 4),
                  fmtDouble(r.speedup, 2), fmtDouble(r.doa_wall_seconds, 4),
                  fmtDouble(r.wall_speedup, 2)});
  }
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("Figure: Doacross pipelining, sequential vs %u-processor "
              "simulated time, pipelined wall time beside it (scale %d, "
              "best of %d, host cores: %u)\n%s\n",
              kThreads, scale, kReps, cores, table.render().c_str());
  std::printf("%d/%zu doacross loops speed up; auditor: %d unsound, %d "
              "uncertified; race oracle: %llu violations\n\n",
              sped_up, rows.size(), unsound, uncertified,
              static_cast<unsigned long long>(violations));

  // ---- part 2: triangular scheduler microbenchmark ----------------
  DiagEngine tdiags;
  auto tri = compileSource(triangularSource(), tdiags);
  if (!tri) {
    std::fprintf(stderr, "triangular microbench failed to compile:\n%s\n",
                 tdiags.dump().c_str());
    return 1;
  }
  const double auto_seconds = timeTriangular(*tri, 0);
  const double split_seconds = timeTriangular(*tri, kTriangularTrip / kThreads);
  TextTable sched_table({"chunk", "simulated (s)", "vs one block/worker"});
  sched_table.addRow({"automatic", fmtDouble(auto_seconds, 4),
                      fmtDouble(split_seconds / auto_seconds, 2)});
  sched_table.addRow({"one block per worker", fmtDouble(split_seconds, 4),
                      "1.00"});
  std::printf("Triangular DOALL (iteration i costs O(i)), %u workers:\n%s\n",
              kThreads, sched_table.render().c_str());

  const bool sched_wins = auto_seconds < split_seconds;
  std::printf("the automatic chunk %s the one-block-per-worker split\n",
              sched_wins ? "beats" : "DOES NOT beat");

  // ---- machine-readable point -------------------------------------
  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"doacross\",\n");
    std::fprintf(f, "  \"threads\": %u,\n  \"scale\": %d,\n", kThreads, scale);
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n", cores);
    std::fprintf(f, "  \"loops\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::fprintf(f,
                   "    {\"program\": \"%s\", \"loop\": \"%s\", \"line\": %u, "
                   "\"syncs_total\": %d, \"syncs_kept\": %d, "
                   "\"seq_seconds\": %.6f, \"doacross_seconds\": %.6f, "
                   "\"speedup\": %.3f, \"doacross_wall_seconds\": %.6f, "
                   "\"wall_speedup\": %.3f}%s\n",
                   r.program.c_str(), r.loop_id.c_str(), r.line, r.syncs_total,
                   r.syncs_kept, r.seq_seconds, r.doa_seconds, r.speedup,
                   r.doa_wall_seconds, r.wall_speedup,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"loops_speedup_gt1\": %d,\n", sped_up);
    std::fprintf(f, "  \"audit_unsound\": %d,\n", unsound);
    std::fprintf(f, "  \"audit_uncertified\": %d,\n", uncertified);
    std::fprintf(f, "  \"oracle_violations\": %llu,\n",
                 static_cast<unsigned long long>(violations));
    std::fprintf(f,
                 "  \"sched\": {\"auto_chunk\": %.6f, "
                 "\"one_block_per_worker\": %.6f},\n",
                 auto_seconds, split_seconds);
    std::fprintf(f, "  \"sched_beats_static\": %s\n",
                 sched_wins ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Correctness-shaped exit: pipelined parallelism that is unsound,
  // racy, or pure overhead is a regression, not a data point.
  if (unsound > 0 || uncertified > 0 || violations > 0) {
    std::fprintf(stderr, "FAIL: doacross plans not certified clean\n");
    return 1;
  }
  if (sped_up < 3) {
    std::fprintf(stderr, "FAIL: fewer than 3 doacross loops speed up\n");
    return 1;
  }
  if (!sched_wins) {
    std::fprintf(stderr,
                 "FAIL: the automatic chunk is no better than one block per "
                 "worker on the imbalanced triangular loop\n");
    return 1;
  }
  return 0;
}
