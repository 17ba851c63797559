// Resource governance for the analysis pipeline.
//
// The exact integer set operations the analysis sits on (Fourier–Motzkin
// elimination, subtraction by constraint splitting) are worst-case
// exponential. An AnalysisBudget bounds the damage an adversarial input
// can do: it carries a wall-clock deadline, a Fourier–Motzkin step
// counter (global and per planned loop), constraint/piece production
// counters, and a recursion-depth guard. Cooperative check points in the
// presburger layer and the analyzer charge against the budget; exhaustion
// raises the structured BudgetExceeded signal, which the analyzer
// catches at well-defined degradation boundaries (per loop, per
// procedure, whole program) and converts into conservative results —
// fewer loops parallelized, never a wrong parallelization, never a crash
// or a hang.
//
// The budget is installed for the current thread with a BudgetScope; code
// that runs without one (unit tests, the interpreter, normal library use
// of the presburger layer) pays a single thread-local pointer test per
// charge point and is otherwise unaffected. With the default limits the
// budget is inert on the whole corpus: only the recursion guard is armed,
// far above any real program's nesting depth.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <string>

namespace padfa {

class FaultInjector;

/// Limits for one analysis run. A value of 0 means "unlimited" for every
/// field except max_recursion_depth, where 0 also means unlimited but the
/// default is a large finite guard.
struct BudgetLimits {
  double deadline_seconds = 0;      ///< wall clock for the whole analysis
  uint64_t max_fm_steps = 0;        ///< Fourier–Motzkin eliminations, global
  uint64_t max_loop_fm_steps = 0;   ///< FM eliminations per planned loop
  uint64_t max_constraints = 0;     ///< constraints produced, global
  uint64_t max_pieces = 0;          ///< set pieces processed, global
  uint32_t max_recursion_depth = 0; ///< analyzer statement-nesting depth

  /// The inert production defaults: everything unlimited except a
  /// recursion guard far above real nesting depths.
  static BudgetLimits defaults();

  /// `base` with any PADFA_BUDGET_* environment overrides applied:
  /// PADFA_BUDGET_DEADLINE_MS, PADFA_BUDGET_FM_STEPS,
  /// PADFA_BUDGET_LOOP_FM_STEPS, PADFA_BUDGET_CONSTRAINTS,
  /// PADFA_BUDGET_PIECES, PADFA_BUDGET_RECURSION.
  static BudgetLimits fromEnv(const BudgetLimits& base);

  /// True when a budget built from these limits could exhaust: a finite
  /// limit beyond the recursion backstop is set, or the PADFA_FAULT_RATE
  /// fault injector is armed in the environment. Shared by the daemon's
  /// persist guard, the incremental path, and the driver's decision to
  /// skip value-range refinement under governance (degraded plans must
  /// never feed promotions).
  bool governed() const;
};

enum class BudgetCause : uint8_t {
  Deadline,
  FmSteps,
  LoopFmSteps,
  Constraints,
  Pieces,
  Recursion,
  Injected,  // synthetic exhaustion forced by a FaultInjector
};

const char* budgetCauseName(BudgetCause cause);

/// Structured signal thrown at a cooperative check point when a budget
/// dimension is exhausted. Catch boundaries convert it into conservative
/// analysis results; it must never escape analyzeProgram().
class BudgetExceeded : public std::exception {
 public:
  explicit BudgetExceeded(BudgetCause cause);
  BudgetCause cause() const { return cause_; }
  const char* what() const noexcept override { return message_.c_str(); }

 private:
  BudgetCause cause_;
  std::string message_;
};

class AnalysisBudget {
 public:
  explicit AnalysisBudget(const BudgetLimits& limits,
                          FaultInjector* injector = nullptr);

  /// The budget installed on this thread by the innermost BudgetScope
  /// (nullptr when none — all charge points are then no-ops).
  static AnalysisBudget* current();

  /// Reset the per-loop FM slice (called when planning of a loop starts).
  void beginLoop();

  /// One Fourier–Motzkin elimination over `constraints` constraints.
  void chargeFmStep(uint64_t constraints);

  /// Piece-level set operation touching `pieces` pieces.
  void chargePieces(uint64_t pieces);

  /// Statement-nesting guard for the analyzer's recursive traversal.
  void enterRecursion();
  void leaveRecursion();

  /// True once a *global* dimension (deadline, global steps/constraints/
  /// pieces) has been exhausted; every later charge re-raises immediately
  /// so the remaining pipeline degrades quickly instead of re-paying the
  /// partial work. Per-loop and injected exhaustions are transient.
  bool exhaustedGlobally() const {
    return exhausted_.load(std::memory_order_relaxed);
  }

  /// True when this budget can actually run out: a finite limit beyond
  /// the recursion backstop is set, or a fault injector is attached. The
  /// feasibility cache is bypassed under a governed budget — charge
  /// points are part of the observable degradation contract, and
  /// a cache hit that skipped them would let a starved analysis dodge
  /// the exhaustion it is supposed to hit.
  bool governed() const {
    return injector_ != nullptr || limits_.deadline_seconds > 0 ||
           limits_.max_fm_steps != 0 || limits_.max_loop_fm_steps != 0 ||
           limits_.max_constraints != 0 || limits_.max_pieces != 0;
  }

  // Telemetry.
  uint64_t fmSteps() const { return fm_steps_.load(std::memory_order_relaxed); }
  uint64_t constraintsBuilt() const {
    return constraints_.load(std::memory_order_relaxed);
  }
  uint64_t piecesTouched() const {
    return pieces_.load(std::memory_order_relaxed);
  }

 private:
  [[noreturn]] void blow(BudgetCause cause);
  void probe();  // deadline subsample + fault injection

  BudgetLimits limits_;
  FaultInjector* injector_ = nullptr;
  double deadline_at_ = 0;  // monotonic seconds; 0 = none
  // Counters are atomic with relaxed ordering: a budget is normally
  // thread-local (installed by a BudgetScope), but nothing stops a caller
  // from sharing one AnalysisBudget across the concurrently-analyzed
  // baseline/predicated pair, and limit checks only need eventually-
  // consistent totals, not ordering.
  std::atomic<uint64_t> fm_steps_{0};
  std::atomic<uint64_t> loop_fm_steps_{0};
  std::atomic<uint64_t> constraints_{0};
  std::atomic<uint64_t> pieces_{0};
  std::atomic<uint32_t> depth_{0};
  std::atomic<uint64_t> probe_tick_{0};
  std::atomic<bool> exhausted_{false};
  std::atomic<BudgetCause> cause_{BudgetCause::Deadline};

  friend class BudgetScope;
};

/// RAII installer: makes `b` the thread's current budget for its
/// lifetime, restoring the previous one (scopes nest) on destruction.
class BudgetScope {
 public:
  explicit BudgetScope(AnalysisBudget& b);
  ~BudgetScope();
  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

 private:
  AnalysisBudget* prev_;
};

/// RAII recursion-depth guard against the current budget (no-op when no
/// budget is installed).
class RecursionGuard {
 public:
  RecursionGuard() : budget_(AnalysisBudget::current()) {
    if (budget_) budget_->enterRecursion();
  }
  ~RecursionGuard() {
    if (budget_) budget_->leaveRecursion();
  }
  RecursionGuard(const RecursionGuard&) = delete;
  RecursionGuard& operator=(const RecursionGuard&) = delete;

 private:
  AnalysisBudget* budget_;
};

}  // namespace padfa
