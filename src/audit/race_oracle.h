// Dynamic race oracle: the one shadow-memory engine. During a sequential
// reference execution it applies the LPD shadow-array criterion to every
// shadowed loop. It serves two clients:
//
//  * the race oracle proper, a verification leg (DESIGN.md §9): each loop
//    the analysis planned to run in parallel is checked for independence
//    *under the plan's own declarations* (privatization, reductions,
//    run-time tests, Doacross syncs). The static PlanAuditor re-derives
//    independence symbolically, the oracle observes it concretely;
//  * ELPD, the paper's yardstick (Rauchwerger & Padua's LPD test, extended
//    per So/Moon/Hall): each candidate loop the base system left
//    sequential is shadowed with no plan, and its verdict is
//    independent, privatizable or not parallel on this input.
//
// Every shadowed loop keeps, per element of every buffer it touches, the
// stamp of the last writing and the last reading iteration. On each
// access it sets a sticky conflict bit on any cross-iteration write/write,
// write/read or read/write pair, and a sticky flow bit on a read of a
// value an earlier iteration wrote (this iteration not having written it
// first). ELPD reads those two bits. A planned loop additionally flags a
// violation when the hazard is one its plan does not excuse:
//  * shared (non-privatized) arrays — any conflict, except one whose
//    iteration distance is a declared Doacross sync distance;
//  * privatized arrays — only flow: each thread gets a private copy, so
//    the read would see the private copy, not the earlier iteration;
//  * scalars declared outside the loop body — flow, except through
//    declared reductions (the interpreter's parallel mode gives every
//    thread its own scalar copy, so flow is the only hazard);
//  * RuntimeTest loops are only armed on invocations where the derived
//    test passes — when it fails the program runs the sequential version
//    and no independence claim is made.
//
// The engine also counts instrumented accesses: the run-time overhead an
// inspector/executor pays, which the paper contrasts with its
// O(#test-atoms) predicated tests (Experiment E5).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "dataflow/loop_plan.h"
#include "lang/ast.h"

namespace padfa {

class RaceOracle {
 public:
  /// An engine with no shadowed loops: ELPD adds its candidates with
  /// instrument().
  RaceOracle() = default;

  /// `program` and `analysis` must outlive the oracle. Every plan with
  /// status Parallel, RuntimeTest, or Doacross becomes a shadowed loop.
  /// Doacross loops are checked modulo their declared syncs: an observed
  /// cross-iteration array conflict is permitted iff its iteration
  /// distance appears in the plan's sync requirements (eliminated ones
  /// included — they name real dependences, merely enforced
  /// transitively); the privatized-flow and scalar-flow rules are
  /// unchanged.
  RaceOracle(const Program& program, const AnalysisResult& analysis);

  /// Shadow `loop` with no plan (an ELPD candidate): no privatized
  /// arrays, no tracked scalars, armed on every invocation. Only its
  /// conflict and flow bits mean anything.
  void instrument(const ForStmt* loop) { loops_.try_emplace(loop); }
  bool isInstrumented(const ForStmt* loop) const {
    return loops_.count(loop) > 0;
  }
  /// The plan a shadowed loop checks; null for a plan-free loop.
  const LoopPlan* planFor(const ForStmt* loop) const;
  size_t auditedCount() const { return loops_.size(); }

  // ------------------------------------------------ interpreter hooks --

  /// Entering a shadowed loop whose claim is armed for this invocation
  /// (RuntimeTest loops: the test passed). `privatized` holds the current
  /// buffer identities of the plan's privatized arrays.
  void loopEnter(const ForStmt* loop, std::set<const void*> privatized = {});
  void loopIterStart(const ForStmt* loop, int64_t ordinal);
  void loopExit(const ForStmt* loop);

  /// A fresh array buffer came to life at this address: any shadow state
  /// recorded for a previous (freed) buffer at the same address is stale
  /// and must be dropped.
  void bufferAllocated(const void* buffer);

  /// Record one element access. `buffer` is the identity of the
  /// underlying element buffer (shared by reshaped views), so aliased
  /// accesses are detected correctly; `decl` only names the array in
  /// violation details.
  void recordAccess(const void* buffer, size_t flat_index, size_t buffer_size,
                    bool is_write, const VarDecl* decl = nullptr);
  void recordScalarRead(const VarDecl* decl);
  void recordScalarWrite(const VarDecl* decl);

  /// A VraAction::PromotedParallel plan's retained run-time test — the
  /// one the value-range analysis proved always-true — evaluated FALSE
  /// at loop entry. The static proof was wrong; that is a violation even
  /// if the concrete accesses of this run happen not to conflict.
  void promotedTestFailed(const ForStmt* loop);

  // ---------------------------------------------------------- results --

  struct LoopVerdict {
    const ForStmt* loop = nullptr;
    const ProcDecl* proc = nullptr;  // null for a plan-free loop
    LoopStatus status = LoopStatus::Sequential;
    uint64_t invocations = 0;  // armed invocations observed
    bool executed = false;     // at least one armed iteration ran
    bool conflict = false;  // an element touched by >1 iteration, one a write
    bool flow = false;      // cross-iteration value flow observed
    uint64_t accesses = 0;  // accesses shadowed for this loop
    bool violation = false;  // planned loops only
    /// First violation, human-readable (empty when none).
    std::string detail;
    SourceLoc loc;  // loop location

    bool independent() const { return executed && !conflict; }
    bool privatizable() const { return executed && conflict && !flow; }
    bool parallelizable() const { return executed && !flow; }
  };

  LoopVerdict verdict(const ForStmt* loop) const;
  std::vector<LoopVerdict> verdicts() const;
  size_t violationCount() const;
  /// Accesses recorded while any shadowed loop was active, each counted
  /// once however many loops shadowed it.
  uint64_t totalAccesses() const { return total_accesses_; }

  /// Multi-line human-readable summary.
  std::string report() const;

 private:
  // Marks are iteration stamps: the invocation's base plus the iteration
  // ordinal, -1 = never. A mark below the current invocation's base was
  // left by an earlier invocation and reads as "never", so re-entering a
  // loop judges it afresh without clearing its shadows.
  struct Shadow {
    std::vector<int64_t> write;  // last writing iteration's stamp
    std::vector<int64_t> read;   // last reading iteration's stamp
    void ensure(size_t n) {
      if (write.size() < n) {
        write.resize(n, -1);
        read.resize(n, -1);
      }
    }
  };
  struct LoopState {
    const LoopPlan* plan = nullptr;  // null: a plan-free (ELPD) loop
    /// Scalars of the enclosing procedure that live across iterations
    /// (declared outside the loop body, not loop indices).
    std::set<const VarDecl*> tracked_scalars;
    /// Reduction scalars (flow through them is the declared plan).
    std::set<const VarDecl*> reduction_scalars;
    /// Doacross: iteration distances declared by the plan's sync
    /// requirements; shared-array conflicts at exactly these distances
    /// are the synchronized dependences, not races.
    std::set<int64_t> sync_distances;

    // Per-invocation state.
    int64_t base = 0;       // stamp of this invocation's ordinal 0
    int64_t next_base = 0;  // one past the highest stamp handed out
    int64_t cur_iter = -1;  // current ordinal, -1 before the first
    std::set<const void*> privatized;
    std::map<const void*, Shadow> shadows;
    std::map<const VarDecl*, int64_t> scalar_writes;  // last write stamp

    // Aggregate over all invocations.
    uint64_t invocations = 0;
    uint64_t accesses = 0;
    bool executed = false;
    bool conflict = false;
    bool flow = false;
    bool violation = false;
    std::string detail;

    int64_t stamp() const { return base + cur_iter; }
    /// Was `mark` left by an earlier iteration of this invocation?
    bool earlier(int64_t mark) const { return mark >= base && mark < stamp(); }
    bool allows(int64_t mark) const {
      return sync_distances.count(stamp() - mark) > 0;
    }
  };

  LoopVerdict verdictOf(const ForStmt* loop, const LoopState& st) const;
  std::string nameOf(const VarDecl* decl) const;
  void flag(LoopState& st, std::string detail);

  const Interner* interner_ = nullptr;
  std::map<const ForStmt*, LoopState> loops_;
  std::vector<LoopState*> active_;
  uint64_t total_accesses_ = 0;
};

}  // namespace padfa
