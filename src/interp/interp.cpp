#include "interp/interp.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

#include "audit/race_oracle.h"
#include "dataflow/doacross.h"
#include "runtime/scheduler.h"

namespace padfa {

double noiseValue(int64_t x) {
  // splitmix64 finalizer -> [0, 1).
  uint64_t z = static_cast<uint64_t>(x) + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z = z ^ (z >> 31);
  return static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
}

int64_t inoiseValue(int64_t x, int64_t m) {
  if (m <= 0) return 0;
  return static_cast<int64_t>(noiseValue(x ^ 0x5bf03635) * static_cast<double>(m));
}

namespace {

struct Value {
  Type type = Type::Int;
  int64_t i = 0;
  double r = 0;

  double asReal() const { return type == Type::Real ? r : static_cast<double>(i); }
  int64_t asInt() const { return type == Type::Int ? i : static_cast<int64_t>(r); }
  bool truthy() const { return type == Type::Int ? i != 0 : r != 0; }

  static Value ofInt(int64_t v) { return {Type::Int, v, 0}; }
  static Value ofReal(double v) { return {Type::Real, 0, v}; }
};

struct Cell {
  int64_t i = 0;
  double r = 0;
  std::shared_ptr<ArrayStorage> array;
};

using Frame = std::vector<Cell>;

// ----------------------------------------------- Doacross run-time sync --

/// Post/wait tables compiled from one Doacross plan's kept sync
/// requirements. Slots are the distinct source statements.
struct DoaTables {
  std::vector<const Stmt*> slots;
  /// sink stmt -> (slot, distance) waits executed before each execution.
  std::map<const Stmt*, std::vector<std::pair<uint32_t, int64_t>>> waits;
  /// source stmt -> slot, for sources whose post fires right after each
  /// execution (statements not nested in an inner loop; everything else
  /// is covered by the end-of-iteration backstop post).
  std::map<const Stmt*, uint32_t> posts;
};

/// One ring cell, reused by iterations o, o+R, o+2R, ... The window gate
/// (iteration o spins on cell[o%R].done >= o-R before starting) makes
/// the per-lap reuse unambiguous: tags are monotone per cell, and a tag
/// >= the wanted ordinal proves that ordinal's post fired (a later lap
/// can only run after the wanted lap fully completed).
struct DoaCell {
  std::atomic<int64_t> done{-1};
  std::unique_ptr<std::atomic<int64_t>[]> posted;
};

/// Recorded sync/busy trace of one iteration, replayed post-region by
/// the event-driven makespan model (busy offsets exclude spin time).
struct DoaEvent {
  bool is_wait = false;
  uint32_t slot = 0;
  int64_t dep = -1;   // waited-on ordinal (waits only)
  double at = 0;      // busy offset within the iteration
};
struct DoaIterRec {
  std::vector<DoaEvent> events;
  double busy = 0;
};

/// Thrown inside a Doacross worker when a sibling faulted: unwinds the
/// in-flight iteration so the barrier can rethrow the sibling's error.
struct DoaCancel {};

struct DoaCtx;
thread_local DoaCtx* t_doa = nullptr;

double threadCpuSecondsNow() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

using Clock = std::chrono::steady_clock;

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// One region's block decomposition (see runtime/scheduler.h): it alone
/// fixes every computed value, whichever path runs the blocks.
struct Blocks {
  LoopRange range;
  uint64_t trip = 0;
  int64_t chunk = 1;
  uint64_t count = 0;

  Blocks(const LoopRange& r, int64_t c)
      : range(r), trip(loopTripCount(r)), chunk(c),
        count(blockCount(trip, c)) {}
};

/// One block's partial value of one scalar reduction.
struct RedPart {
  int64_t i;
  double r;
};

/// A plan's scalar reduction flattened for the per-block hot path: the
/// scalar's frame slot, its identity, and how partials fold.
struct RedSlot {
  size_t id = 0;
  RedPart identity{0, 0};
  ReductionOp op = ReductionOp::Sum;
  bool is_int = false;
};

/// Measured cost per iteration of one planned loop on its earlier entries
/// in this execute: the whole region's wall time over trip when inline;
/// when pooled, the wall time per iteration of the first block any worker
/// starts (its thread-CPU cost, which the pooled path also records, would
/// carry a clock read that costs more than a small block). Timing noise
/// (preemption, a cold cache) only ever inflates a sample, so the
/// estimate drops to a cheaper sample at once and moves a quarter of the
/// way toward a dearer one: one preempted entry costs at most one
/// needless pool dispatch, while a loop that really grows still reaches
/// the pool within a few entries.
struct LoopCost {
  double per_iter = 0;
  bool measured = false;

  void record(double m) {
    if (!measured || m < per_iter)
      per_iter = m;
    else
      per_iter += 0.25 * (m - per_iter);
    measured = true;
  }
};

/// SUIF's run-time granularity test: a region whose expected cost (cost
/// per iteration on earlier entries × trip) is below this grain runs
/// inline, since a pool dispatch and barrier would cost more than the
/// workers save.
constexpr double kGrainSeconds = 50e-6;

/// Per-worker state of an active Doacross region, installed in t_doa
/// while the worker executes loop-body statements.
struct DoaCtx {
  const DoaTables* tables = nullptr;
  DoaCell* cells = nullptr;
  int64_t ring = 2;
  ThreadPool* pool = nullptr;
  int64_t ordinal = 0;
  DoaIterRec* rec = nullptr;
  double cpu_base = 0;
  double spin_cpu = 0;
  uint64_t wait_count = 0;

  double busyNow() const { return threadCpuSecondsNow() - cpu_base - spin_cpu; }

  void beforeStmt(const Stmt* s) {
    auto it = tables->waits.find(s);
    if (it == tables->waits.end()) return;
    for (const auto& [slot, dist] : it->second) {
      int64_t want = ordinal - dist;
      if (want < 0) continue;
      ++wait_count;
      if (rec && rec->events.size() < 256)
        rec->events.push_back({true, slot, want, busyNow()});
      DoaCell& cell = cells[want % ring];
      if (cell.posted[slot].load(std::memory_order_acquire) >= want)
        continue;
      double sp0 = threadCpuSecondsNow();
      while (cell.posted[slot].load(std::memory_order_acquire) < want) {
        if (pool->cancelRequested()) {
          spin_cpu += threadCpuSecondsNow() - sp0;
          throw DoaCancel{};
        }
        std::this_thread::yield();
      }
      spin_cpu += threadCpuSecondsNow() - sp0;
    }
  }

  void afterStmt(const Stmt* s) {
    auto it = tables->posts.find(s);
    if (it == tables->posts.end()) return;
    if (rec && rec->events.size() < 256)
      rec->events.push_back({false, it->second, -1, busyNow()});
    cells[ordinal % ring].posted[it->second].store(
        ordinal, std::memory_order_release);
  }
};

/// RAII installer for t_doa (exception-safe against RuntimeError and
/// DoaCancel unwinding through execBlock).
struct DoaScope {
  explicit DoaScope(DoaCtx* ctx) { t_doa = ctx; }
  ~DoaScope() { t_doa = nullptr; }
};

class Interp {
 public:
  Interp(const Program& program, const InterpOptions& opt)
      : program_(program), opt_(opt) {
    // Instrumented runs (ELPD or race oracle) are sequential by contract:
    // the engine is not thread-safe, and the shadowing_ flag below is a
    // plain bool that may only be toggled single-threaded.
    // A single-threaded plan run still gets a (worker-less) pool: planned
    // loops then take the same block decomposition and per-block
    // reduction combine as multi-threaded runs, so results are
    // bit-identical across 1..N threads.
    if (opt_.plans && opt_.num_threads >= 1 && !opt_.race)
      pool_ = std::make_unique<ThreadPool>(opt_.num_threads);
  }

  InterpStats run() {
    const ProcDecl* main = program_.findProc("main");
    if (!main) throw RuntimeError({}, "program has no 'main' procedure");
    if (!main->params.empty())
      throw RuntimeError(main->loc, "'main' must take no parameters");
    auto t0 = std::chrono::steady_clock::now();
    Frame frame(main->all_vars.size());
    execProc(*main, frame);
    auto t1 = std::chrono::steady_clock::now();
    stats_.total_seconds = std::chrono::duration<double>(t1 - t0).count();
    stats_.simulated_seconds =
        stats_.total_seconds - parallel_wall_ + parallel_simulated_;
    return std::move(stats_);
  }

 private:
  // ------------------------------------------------------- expression --

  Value eval(const Expr& e, Frame& frame) {
    switch (e.kind) {
      case ExprKind::IntLit:
        return Value::ofInt(static_cast<const IntLitExpr&>(e).value);
      case ExprKind::RealLit:
        return Value::ofReal(static_cast<const RealLitExpr&>(e).value);
      case ExprKind::VarRef: {
        const auto& v = static_cast<const VarRefExpr&>(e);
        const Cell& c = frame[v.decl->local_id];
        if (shadowing_) opt_.race->recordScalarRead(v.decl);
        return v.decl->elem_type == Type::Int ? Value::ofInt(c.i)
                                              : Value::ofReal(c.r);
      }
      case ExprKind::ArrayRef: {
        const auto& a = static_cast<const ArrayRefExpr&>(e);
        ArrayStorage& st = storageOf(a, frame);
        size_t flat = flatIndex(a, st, frame);
        if (shadowing_)
          opt_.race->recordAccess(st.bufferId(), flat, st.size(), false,
                                  a.decl);
        return st.elem == Type::Int ? Value::ofInt((*st.ints)[flat])
                                    : Value::ofReal((*st.reals)[flat]);
      }
      case ExprKind::Unary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        Value v = eval(*u.operand, frame);
        if (u.op == UnOp::Not) return Value::ofInt(v.truthy() ? 0 : 1);
        if (v.type == Type::Int) return Value::ofInt(-v.i);
        return Value::ofReal(-v.r);
      }
      case ExprKind::Binary:
        return evalBinary(static_cast<const BinaryExpr&>(e), frame);
      case ExprKind::Intrinsic:
        return evalIntrinsic(static_cast<const IntrinsicExpr&>(e), frame);
    }
    throw RuntimeError(e.loc, "unreachable expression kind");
  }

  Value evalBinary(const BinaryExpr& b, Frame& frame) {
    Value l = eval(*b.lhs, frame);
    // Short-circuit logical operators.
    if (b.op == BinOp::And) {
      if (!l.truthy()) return Value::ofInt(0);
      return Value::ofInt(eval(*b.rhs, frame).truthy() ? 1 : 0);
    }
    if (b.op == BinOp::Or) {
      if (l.truthy()) return Value::ofInt(1);
      return Value::ofInt(eval(*b.rhs, frame).truthy() ? 1 : 0);
    }
    Value r = eval(*b.rhs, frame);
    bool real_op = l.type == Type::Real || r.type == Type::Real;
    switch (b.op) {
      case BinOp::Add:
        return real_op ? Value::ofReal(l.asReal() + r.asReal())
                       : Value::ofInt(l.i + r.i);
      case BinOp::Sub:
        return real_op ? Value::ofReal(l.asReal() - r.asReal())
                       : Value::ofInt(l.i - r.i);
      case BinOp::Mul:
        return real_op ? Value::ofReal(l.asReal() * r.asReal())
                       : Value::ofInt(l.i * r.i);
      case BinOp::Div:
        if (real_op) return Value::ofReal(l.asReal() / r.asReal());
        if (r.i == 0) throw RuntimeError(b.loc, "integer division by zero");
        return Value::ofInt(l.i / r.i);
      case BinOp::Rem:
        if (r.i == 0) throw RuntimeError(b.loc, "integer modulo by zero");
        return Value::ofInt(l.i % r.i);
      case BinOp::Eq:
        return Value::ofInt(real_op ? l.asReal() == r.asReal() : l.i == r.i);
      case BinOp::Ne:
        return Value::ofInt(real_op ? l.asReal() != r.asReal() : l.i != r.i);
      case BinOp::Lt:
        return Value::ofInt(real_op ? l.asReal() < r.asReal() : l.i < r.i);
      case BinOp::Le:
        return Value::ofInt(real_op ? l.asReal() <= r.asReal() : l.i <= r.i);
      case BinOp::Gt:
        return Value::ofInt(real_op ? l.asReal() > r.asReal() : l.i > r.i);
      case BinOp::Ge:
        return Value::ofInt(real_op ? l.asReal() >= r.asReal() : l.i >= r.i);
      default:
        throw RuntimeError(b.loc, "unreachable binary op");
    }
  }

  Value evalIntrinsic(const IntrinsicExpr& c, Frame& frame) {
    switch (c.fn) {
      case Intrinsic::Min:
      case Intrinsic::Max: {
        Value a = eval(*c.args[0], frame);
        Value b = eval(*c.args[1], frame);
        bool real_op = a.type == Type::Real || b.type == Type::Real;
        if (real_op) {
          double x = a.asReal(), y = b.asReal();
          return Value::ofReal(c.fn == Intrinsic::Min ? std::min(x, y)
                                                      : std::max(x, y));
        }
        return Value::ofInt(c.fn == Intrinsic::Min ? std::min(a.i, b.i)
                                                   : std::max(a.i, b.i));
      }
      case Intrinsic::Abs: {
        Value a = eval(*c.args[0], frame);
        if (a.type == Type::Int) return Value::ofInt(a.i < 0 ? -a.i : a.i);
        return Value::ofReal(std::fabs(a.r));
      }
      case Intrinsic::Sqrt:
        return Value::ofReal(std::sqrt(eval(*c.args[0], frame).asReal()));
      case Intrinsic::Noise:
        return Value::ofReal(noiseValue(eval(*c.args[0], frame).asInt()));
      case Intrinsic::INoise: {
        int64_t x = eval(*c.args[0], frame).asInt();
        int64_t m = eval(*c.args[1], frame).asInt();
        return Value::ofInt(inoiseValue(x, m));
      }
    }
    throw RuntimeError(c.loc, "unreachable intrinsic");
  }

  ArrayStorage& storageOf(const ArrayRefExpr& a, Frame& frame) {
    const auto& cell = frame[a.decl->local_id];
    if (!cell.array)
      throw RuntimeError(a.loc, "array used before allocation");
    return *cell.array;
  }

  size_t flatIndex(const ArrayRefExpr& a, const ArrayStorage& st,
                   Frame& frame) {
    size_t flat = 0;
    for (size_t j = 0; j < a.indices.size(); ++j) {
      int64_t idx = eval(*a.indices[j], frame).asInt();
      if (idx < 0 || idx >= st.dims[j])
        throw RuntimeError(a.loc, "index " + std::to_string(idx) +
                                      " out of bounds [0, " +
                                      std::to_string(st.dims[j] - 1) +
                                      "] in dimension " + std::to_string(j));
      flat = flat * static_cast<size_t>(st.dims[j]) + static_cast<size_t>(idx);
    }
    return flat;
  }

  // -------------------------------------------------------- statements --

  void execProc(const ProcDecl& proc, Frame& frame) {
    if (execBlock(*proc.body, frame)) return;  // hit `return`
  }

  // Returns true if a `return` unwound.
  bool execBlock(const BlockStmt& block, Frame& frame) {
    for (const auto& d : block.decls) allocate(*d, frame);
    for (const auto& s : block.stmts)
      if (execStmt(*s, frame)) return true;
    return false;
  }

  void allocate(const VarDecl& d, Frame& frame) {
    Cell& cell = frame[d.local_id];
    if (d.isArray()) {
      auto st = std::make_shared<ArrayStorage>();
      st->elem = d.elem_type;
      for (const auto& dim : d.dims) {
        int64_t n = eval(*dim, frame).asInt();
        if (n <= 0)
          throw RuntimeError(d.loc, "non-positive array dimension");
        st->dims.push_back(n);
      }
      if (d.elem_type == Type::Real)
        st->reals = std::make_shared<std::vector<double>>(st->size(), 0.0);
      else
        st->ints = std::make_shared<std::vector<int64_t>>(st->size(), 0);
      cell.array = std::move(st);
      // The heap may recycle a freed buffer's address: stale shadow state
      // recorded for the old buffer must not taint the new one.
      if (shadowing_) opt_.race->bufferAllocated(cell.array->bufferId());
    } else {
      cell.i = 0;
      cell.r = 0;
      if (d.init) {
        Value v = eval(*d.init, frame);
        if (d.elem_type == Type::Int)
          cell.i = v.asInt();
        else
          cell.r = v.asReal();
      }
    }
  }

  bool execStmt(const Stmt& s, Frame& frame) {
    // Doacross post/wait hooks: inside a pipelined region every worker
    // waits before executing a sync sink and posts after executing a
    // sync source (t_doa is null everywhere else — one predictable
    // branch per statement).
    if (t_doa) {
      t_doa->beforeStmt(&s);
      bool ret = execStmtImpl(s, frame);
      t_doa->afterStmt(&s);
      return ret;
    }
    return execStmtImpl(s, frame);
  }

  bool execStmtImpl(const Stmt& s, Frame& frame) {
    switch (s.kind) {
      case StmtKind::Assign: {
        const auto& as = static_cast<const AssignStmt&>(s);
        Value v = eval(*as.value, frame);
        if (as.target->kind == ExprKind::ArrayRef) {
          const auto& ref = static_cast<const ArrayRefExpr&>(*as.target);
          ArrayStorage& st = storageOf(ref, frame);
          size_t flat = flatIndex(ref, st, frame);
          if (shadowing_)
            opt_.race->recordAccess(st.bufferId(), flat, st.size(), true,
                                    ref.decl);
          if (st.elem == Type::Int)
            (*st.ints)[flat] = v.asInt();
          else
            (*st.reals)[flat] = v.asReal();
        } else {
          const auto& ref = static_cast<const VarRefExpr&>(*as.target);
          Cell& c = frame[ref.decl->local_id];
          if (shadowing_) opt_.race->recordScalarWrite(ref.decl);
          if (ref.decl->elem_type == Type::Int)
            c.i = v.asInt();
          else
            c.r = v.asReal();
        }
        return false;
      }
      case StmtKind::If: {
        const auto& ifs = static_cast<const IfStmt&>(s);
        if (eval(*ifs.cond, frame).truthy())
          return execBlock(*ifs.then_block, frame);
        if (ifs.else_block) return execBlock(*ifs.else_block, frame);
        return false;
      }
      case StmtKind::For:
        return execFor(static_cast<const ForStmt&>(s), frame);
      case StmtKind::Call:
        return execCall(static_cast<const CallStmt&>(s), frame);
      case StmtKind::Return:
        return true;
      case StmtKind::Block:
        return execBlock(static_cast<const BlockStmt&>(s), frame);
    }
    return false;
  }

  bool execCall(const CallStmt& s, Frame& frame) {
    if (s.is_sink) {
      Value v = eval(*s.args[0], frame);
      std::lock_guard<std::mutex> lock(sink_mu_);
      stats_.checksum += v.asReal();
      ++stats_.sink_count;
      return false;
    }
    const ProcDecl& callee = *s.callee_proc;
    Frame callee_frame(callee.all_vars.size());
    // Bind scalar parameters first: array formal dims may reference any
    // scalar parameter regardless of declaration order.
    for (size_t i = 0; i < s.args.size(); ++i) {
      const VarDecl& param = *callee.params[i];
      if (param.isArray()) continue;
      Value v = eval(*s.args[i], frame);
      Cell& cell = callee_frame[param.local_id];
      if (param.elem_type == Type::Int)
        cell.i = v.asInt();
      else
        cell.r = v.asReal();
    }
    for (size_t i = 0; i < s.args.size(); ++i) {
      const VarDecl& param = *callee.params[i];
      if (!param.isArray()) continue;
      const auto& ref = static_cast<const VarRefExpr&>(*s.args[i]);
      const auto& actual = frame[ref.decl->local_id].array;
      if (!actual)
        throw RuntimeError(s.loc, "array argument not allocated");
      std::vector<int64_t> fdims;
      size_t want = 1;
      for (const auto& dim : param.dims) {
        int64_t n = eval(*dim, callee_frame).asInt();
        if (n <= 0)
          throw RuntimeError(s.loc, "non-positive formal array dimension");
        fdims.push_back(n);
        want *= static_cast<size_t>(n);
      }
      Cell& cell = callee_frame[param.local_id];
      if (fdims == actual->dims) {
        cell.array = actual;  // same shape: direct sharing
      } else {
        // Fortran-style sequence association: the formal is a reshaped
        // view over the same buffer.
        if (want > actual->size())
          throw RuntimeError(
              s.loc, "reshaped formal view (" + std::to_string(want) +
                         " elements) exceeds actual array (" +
                         std::to_string(actual->size()) + " elements)");
        auto view = std::make_shared<ArrayStorage>();
        view->elem = actual->elem;
        view->dims = std::move(fdims);
        view->reals = actual->reals;  // shared buffers
        view->ints = actual->ints;
        cell.array = std::move(view);
      }
    }
    try {
      execProc(callee, callee_frame);
    } catch (const RuntimeError& e) {
      // Rewrap with a call-stack frame so a fault deep in a callee chain
      // reports every call site on the way down.
      throw RuntimeError(e, program_.interner.str(callee.name), s.loc);
    }
    return false;
  }

  bool execFor(const ForStmt& loop, Frame& frame) {
    int64_t lb = eval(*loop.lower, frame).asInt();
    int64_t ub = eval(*loop.upper, frame).asInt();
    int64_t step = loop.step ? eval(*loop.step, frame).asInt() : 1;
    if (step == 0) throw RuntimeError(loop.loc, "zero loop step");

    const LoopPlan* plan = nullptr;
    if (opt_.plans && !in_parallel_ && pool_) {
      plan = opt_.plans->planFor(&loop);
      if (plan && plan->status != LoopStatus::Parallel &&
          plan->status != LoopStatus::RuntimeTest &&
          plan->status != LoopStatus::Doacross)
        plan = nullptr;
    }

    // Profiling only: a clock read costs as much as a small loop body.
    Clock::time_point t0 = opt_.profile ? Clock::now() : Clock::time_point{};
    bool returned = false;
    uint64_t iters = 0;

    if (plan && plan->status == LoopStatus::RuntimeTest) {
      ++stats_.runtime_tests_evaluated;
      stats_.runtime_test_atoms += plan->runtime_test.atomCount();
      std::optional<bool> pass = evalRuntimeTest(*plan, frame);
      if (!pass) ++stats_.runtime_tests_trapped;
      if (pass.value_or(false))
        ++stats_.runtime_tests_passed;
      else
        plan = nullptr;  // fall back to the sequential version
    }
    // A promoted plan (runtime test statically discharged by value
    // ranges) dispatches straight to the parallel version: the test the
    // two-version scheme would have evaluated here was proved true at
    // compile time.
    if (plan && plan->status == LoopStatus::Parallel &&
        plan->vra_action == VraAction::PromotedParallel)
      ++stats_.runtime_tests_pruned;

    const LoopRange range{lb, ub, step};
    double region_sim = -1;
    if (plan && step > 0 && lb <= ub) {
      if (plan->status == LoopStatus::Doacross) {
        region_sim = execForDoacross(loop, *plan, frame, range);
        ++stats_.doacross_loops_entered;
      } else {
        region_sim = execForParallel(loop, *plan, frame, range);
        ++stats_.parallel_loops_entered;
      }
      iters = loopTripCount(range);
    } else {
      returned = execForSequential(loop, frame, range, iters);
    }

    // Profiling is skipped inside parallel regions (stats_ would race);
    // coverage/granularity numbers come from sequential profiled runs.
    if (opt_.profile && !in_parallel_) {
      auto t1 = Clock::now();
      LoopProfile& prof = stats_.profiles[&loop];
      ++prof.invocations;
      prof.iterations += iters;
      double wall = seconds(t1 - t0);
      prof.seconds += wall;
      prof.simulated_seconds += region_sim >= 0 ? region_sim : wall;
    }
    return returned;
  }

  /// Evaluate `plan`'s derived run-time test at loop entry; nullopt when
  /// the evaluation itself faults (division by zero, bad subscript in an
  /// atom). Callers treat a fault as a failed test and take the
  /// sequential version, which reproduces the fault exactly when the
  /// original program would.
  std::optional<bool> evalRuntimeTest(const LoopPlan& plan, Frame& frame) {
    try {
      return plan.runtime_test.evaluate(
          [&](const Expr& e) { return eval(e, frame).asReal(); });
    } catch (const RuntimeError&) {
      return std::nullopt;
    }
  }

  /// Arm a shadowed loop's claim for this invocation and enter it in the
  /// engine; false when the loop is not shadowed this time. Plan-free
  /// (ELPD) loops are armed on every invocation. A RuntimeTest plan only
  /// claims independence on invocations where its test passes, evaluated
  /// exactly as the two-version dispatch would. A promoted plan claims its
  /// retained test ALWAYS passes; the oracle checks that claim on every
  /// entry, and shadows the loop either way — the plan runs parallel
  /// unconditionally, so its claim is unconditional.
  bool armShadow(const ForStmt& loop, Frame& frame) {
    if (!opt_.race->isInstrumented(&loop)) return false;
    std::set<const void*> privatized;
    if (const LoopPlan* plan = opt_.race->planFor(&loop)) {
      if (plan->status == LoopStatus::RuntimeTest) {
        if (!evalRuntimeTest(*plan, frame).value_or(false)) return false;
      } else if (plan->status == LoopStatus::Parallel &&
                 plan->vra_action == VraAction::PromotedParallel &&
                 !evalRuntimeTest(*plan, frame).value_or(false)) {
        opt_.race->promotedTestFailed(&loop);
      }
      for (const auto& pa : plan->privatized) {
        const auto& cell = frame[pa.array->local_id];
        if (cell.array) privatized.insert(cell.array->bufferId());
      }
    }
    opt_.race->loopEnter(&loop, std::move(privatized));
    return true;
  }

  bool execForSequential(const ForStmt& loop, Frame& frame,
                         const LoopRange& range, uint64_t& iters) {
    // Only touch the shadowing flag when an engine is attached: it forces
    // sequential execution (no pool), so the flag is then single-threaded.
    // Without one it must stay untouched — parallel workers read it
    // concurrently.
    const bool shadowed = opt_.race && armShadow(loop, frame);
    const bool prev_shadowing = shadowing_;
    if (opt_.race) shadowing_ = shadowing_ || shadowed;
    // Count the iterations and step the index in wrapping uint64
    // arithmetic, as blockAt does: a bound at the int64 limit neither
    // overflows the index nor keeps the loop running.
    const uint64_t trip = loopTripCount(range);
    const uint64_t step = static_cast<uint64_t>(range.step);
    uint64_t ordinal = 0;
    bool returned = false;
    for (uint64_t i = static_cast<uint64_t>(range.lo); ordinal < trip;
         ++ordinal, i += step) {
      if (shadowed)
        opt_.race->loopIterStart(&loop, static_cast<int64_t>(ordinal));
      frame[loop.index_decl->local_id].i = static_cast<int64_t>(i);
      if (execBlock(*loop.body, frame)) {
        returned = true;
        break;
      }
    }
    iters = ordinal;
    if (shadowed) opt_.race->loopExit(&loop);
    if (opt_.race) shadowing_ = prev_shadowing;
    return returned;
  }

  /// Refill a reused private buffer: a copy of the shared buffer
  /// (copy-in) or `n` zeros.
  template <class E>
  static void refillPrivate(std::shared_ptr<std::vector<E>>& buf,
                            const std::vector<E>& shared, bool copy_in,
                            size_t n) {
    if (!buf) buf = std::make_shared<std::vector<E>>();
    if (copy_in)
      buf->assign(shared.begin(), shared.end());
    else
      buf->assign(n, E{});
  }

  /// The prologue of one region: flatten the plan's reductions, size the
  /// per-block partials, and prepare the frame slots — slot T (the final
  /// block's frame, which owns copy-out) always, and slots 0..workers-1
  /// (one per worker) when there is more than one block. Each slot is a
  /// shallow copy of `frame` (shared arrays alias) whose privatized arrays
  /// get fresh zero or copy-in state. All of it persists across entries
  /// and is re-assigned, not re-allocated.
  void prepareFrames(const LoopPlan& plan, const Frame& frame,
                     unsigned workers, uint64_t nblocks) {
    red_slots_.clear();
    for (const auto& red : plan.reductions)
      red_slots_.push_back({red.scalar->local_id, reductionIdentity(red.op),
                            red.op, red.scalar->elem_type == Type::Int});
    partials_.resize(nblocks * red_slots_.size());
    unsigned T = pool_->size();
    if (frames_.size() != T + 1) {
      frames_.resize(T + 1);
      privates_.resize(T + 1);
    }
    auto prepare = [&](unsigned s) {
      Frame& f = frames_[s];
      f = frame;
      auto& privs = privates_[s];
      if (privs.size() < plan.privatized.size())
        privs.resize(plan.privatized.size());
      for (size_t k = 0; k < plan.privatized.size(); ++k) {
        const auto& pa = plan.privatized[k];
        const ArrayStorage& shared = *frame[pa.array->local_id].array;
        if (!privs[k]) privs[k] = std::make_shared<ArrayStorage>();
        ArrayStorage& priv = *privs[k];
        priv.elem = shared.elem;
        priv.dims = shared.dims;
        if (shared.elem == Type::Real)
          refillPrivate(priv.reals, *shared.reals, pa.copy_in, shared.size());
        else
          refillPrivate(priv.ints, *shared.ints, pa.copy_in, shared.size());
        f[pa.array->local_id].array = privs[k];
      }
    };
    if (nblocks > 1)
      for (unsigned t = 0; t < workers; ++t) prepare(t);
    prepare(T);
  }

  /// The one block walker, shared by the pooled and inline paths of DOALL
  /// and Doacross regions. Runs blocks [b0, b1) of `blocks` on frame `tf`,
  /// in order. Per block, reduction scalars start at their identity, the
  /// block's iterations run (`iterate(ordinal)` runs the body of one and
  /// returns false to abandon the run), and the block's reduction
  /// partials land in partials_ at the block's index.
  template <class Iterate>
  void walkBlocks(const ForStmt& loop, Frame& tf, const Blocks& blocks,
                  uint64_t b0, uint64_t b1, Iterate&& iterate) {
    size_t nred = red_slots_.size();
    uint64_t c = static_cast<uint64_t>(blocks.chunk);
    uint64_t step = static_cast<uint64_t>(blocks.range.step);
    Cell& index = tf[loop.index_decl->local_id];
    uint64_t o = b0 * c;
    // lo + o*step in wrapping uint64 arithmetic, as blockAt computes it.
    uint64_t i = static_cast<uint64_t>(blocks.range.lo) + o * step;
    for (uint64_t b = b0; b < b1; ++b) {
      for (const RedSlot& rs : red_slots_) {
        tf[rs.id].i = rs.identity.i;
        tf[rs.id].r = rs.identity.r;
      }
      for (uint64_t end = std::min(blocks.trip, o + c); o < end;
           ++o, i += step) {
        index.i = static_cast<int64_t>(i);
        if (!iterate(static_cast<int64_t>(o))) return;
      }
      RedPart* out = partials_.data() + b * nred;
      for (size_t r = 0; r < nred; ++r)
        out[r] = {tf[red_slots_[r].id].i, tf[red_slots_[r].id].r};
    }
  }

  /// Fold the per-block reduction partials into the shared scalars in
  /// ascending block order: the grouping depends only on the block
  /// decomposition, so sums are bit-identical across threads and inline
  /// or pooled execution.
  void combinePartials(Frame& frame, uint64_t nblocks) {
    size_t nred = red_slots_.size();
    for (size_t r = 0; r < nred; ++r) {
      const RedSlot& rs = red_slots_[r];
      Cell& shared = frame[rs.id];
      for (uint64_t b = 0; b < nblocks; ++b)
        applyReduction(rs.op, rs.is_int, shared, partials_[b * nred + r]);
    }
  }

  /// Run every block of a region on the calling thread, in ascending
  /// order: the last block on the final frame (slot T), the others on
  /// slot 0. That is the block decomposition and frame roles of a pooled
  /// run, so with the same combine the results are bit-identical to it.
  void walkInline(const ForStmt& loop, const Blocks& blocks) {
    auto run = [&](Frame& tf, uint64_t b0, uint64_t b1) {
      walkBlocks(loop, tf, blocks, b0, b1, [&](int64_t) {
        execBlock(*loop.body, tf);
        return true;
      });
    };
    if (blocks.count > 1) run(frames_[0], 0, blocks.count - 1);
    run(frames_[pool_->size()], blocks.count - 1, blocks.count);
  }

  /// Run a whole region inline on the calling thread, entered at `t0`:
  /// prologue, every block, combine and copy-out. Returns its simulated
  /// cost, which is its wall time.
  double execInline(const ForStmt& loop, const LoopPlan& plan, Frame& frame,
                    const Blocks& blocks, Clock::time_point t0) {
    prepareFrames(plan, frame, 1, blocks.count);
    auto t1 = Clock::now();
    bool prev_in_parallel = in_parallel_;
    in_parallel_ = true;
    walkInline(loop, blocks);
    in_parallel_ = prev_in_parallel;
    auto t2 = Clock::now();
    combinePartials(frame, blocks.count);
    copyOutFrom(plan, frame, frames_[pool_->size()]);
    auto t3 = Clock::now();
    return bookRegion(t0, t1, t2, t3, seconds(t2 - t1));
  }

  /// Book one region's wall time as prologue [t0, t1), region [t1, t2)
  /// and epilogue [t2, t3). Returns its simulated cost: the serial
  /// prologue and epilogue at wall time plus `region_model`.
  double bookRegion(Clock::time_point t0, Clock::time_point t1,
                    Clock::time_point t2, Clock::time_point t3,
                    double region_model) {
    double prologue = seconds(t1 - t0);
    double region = seconds(t2 - t1);
    double epilogue = seconds(t3 - t2);
    stats_.parallel_prologue_seconds += prologue;
    stats_.parallel_region_seconds += region;
    stats_.parallel_epilogue_seconds += epilogue;
    parallel_wall_ += prologue + region + epilogue;
    double sim = prologue + region_model + epilogue;
    parallel_simulated_ += sim;
    return sim;
  }

  static RedPart reductionIdentity(ReductionOp op) {
    switch (op) {
      case ReductionOp::Sum:
        return {0, 0};
      case ReductionOp::Prod:
        return {1, 1};
      case ReductionOp::Min:
        return {std::numeric_limits<int64_t>::max(),
                std::numeric_limits<double>::infinity()};
      case ReductionOp::Max:
        return {std::numeric_limits<int64_t>::min(),
                -std::numeric_limits<double>::infinity()};
    }
    return {0, 0};
  }

  static void applyReduction(ReductionOp op, bool is_int, Cell& into,
                             const RedPart& part) {
    int64_t i = part.i;
    double r = part.r;
    switch (op) {
      case ReductionOp::Sum:
        if (is_int) into.i += i; else into.r += r;
        break;
      case ReductionOp::Prod:
        if (is_int) into.i *= i; else into.r *= r;
        break;
      case ReductionOp::Min:
        if (is_int) into.i = std::min(into.i, i);
        else into.r = std::min(into.r, r);
        break;
      case ReductionOp::Max:
        if (is_int) into.i = std::max(into.i, i);
        else into.r = std::max(into.r, r);
        break;
    }
  }

  /// Copy-out from the final-block frame: privatized arrays and scalars
  /// take the values left by the globally-last block (which contains the
  /// last iteration — the analysis guarantees per-iteration definition,
  /// so any contiguous tail is equivalent and the choice does not depend
  /// on which worker ran the block).
  void copyOutFrom(const LoopPlan& plan, Frame& frame, Frame& lf) {
    for (const auto& pa : plan.privatized) {
      if (!pa.copy_out) continue;
      Cell& shared = frame[pa.array->local_id];
      const Cell& priv = lf[pa.array->local_id];
      if (shared.array->elem == Type::Real)
        *shared.array->reals = *priv.array->reals;
      else
        *shared.array->ints = *priv.array->ints;
    }
    for (const VarDecl* sc : plan.copy_out_scalars)
      frame[sc->local_id] = lf[sc->local_id];
  }

  /// Makespan of the blocks of a region, with thread-CPU costs
  /// `block_cpu` in index order, on T dedicated virtual workers under
  /// the scheduler's claim rule: each block goes to the worker that
  /// frees up first. Replaying measured costs rather than reading
  /// per-worker totals keeps the model independent of host load: a
  /// worker kept off its core makes the others claim more blocks, which
  /// would raise their totals without any block costing more.
  static double replayBlocks(const std::vector<double>& block_cpu,
                             unsigned T) {
    std::vector<double> wclock(T, 0.0);
    for (double c : block_cpu)
      *std::min_element(wclock.begin(), wclock.end()) += c;
    return *std::max_element(wclock.begin(), wclock.end());
  }

  /// DOALL execution over the block scheduler, or inline on the calling
  /// thread when T = 1 or the granularity test says the region is too
  /// small to pay for a dispatch. Returns the simulated P-processor cost
  /// of this region (serial prologue/epilogue at wall time, a pooled
  /// region at its replayed block costs, an inline one at wall time).
  double execForParallel(const ForStmt& loop, const LoopPlan& plan,
                         Frame& frame, const LoopRange& range) {
    auto t0 = Clock::now();
    unsigned T = pool_->size();
    const Blocks blocks(range, resolveChunk(loopTripCount(range), opt_.chunk));
    uint64_t nblocks = blocks.count;

    // SUIF's run-time granularity test, on the cost per iteration this
    // loop showed on its earlier entries. The first entry always goes
    // to the pool, so a coarse loop entered once is never serialized.
    LoopCost& cost = loop_cost_[&loop];
    double trip = static_cast<double>(blocks.trip);
    if (T == 1 || (cost.measured && cost.per_iter * trip < kGrainSeconds)) {
      ++stats_.parallel_loops_inlined;
      double sim = execInline(loop, plan, frame, blocks, t0);
      cost.record(sim / trip);
      return sim;
    }

    prepareFrames(plan, frame, T, nblocks);
    // A block's cost runs from its worker's previous clock read (the end
    // of its previous block, or the start of this one) to its end: one
    // thread-CPU read per block, plus one per worker.
    block_cpu_.assign(nblocks, 0.0);
    cpu_mark_.assign(T, -1.0);
    // The cost sample: written by the one worker that claims it, read by
    // the dispatching thread after the barrier.
    std::atomic<bool> sample_claimed{false};
    double sample = -1;
    auto t1 = Clock::now();
    bool prev_in_parallel = in_parallel_;
    in_parallel_ = true;
    runBlocks(
        *pool_, range, blocks.chunk,
        [&](unsigned t, const LoopBlock& blk) {
          Frame& tf = frames_[blk.index == nblocks - 1 ? T : t];
          double& mark = cpu_mark_[t];
          if (mark < 0) mark = threadCpuSecondsNow();
          bool sampling =
              !sample_claimed.load(std::memory_order_relaxed) &&
              !sample_claimed.exchange(true, std::memory_order_relaxed);
          Clock::time_point s0 = sampling ? Clock::now() : Clock::time_point{};
          walkBlocks(loop, tf, blocks, blk.index, blk.index + 1, [&](int64_t) {
            // Cooperative cancellation: a sibling faulted; the barrier
            // rethrows its error anyway.
            if (pool_->cancelRequested()) return false;
            execBlock(*loop.body, tf);
            return true;
          });
          if (sampling)
            sample =
                seconds(Clock::now() - s0) / static_cast<double>(blk.iters);
          double now = threadCpuSecondsNow();
          block_cpu_[blk.index] = now - mark;
          mark = now;
        });
    in_parallel_ = prev_in_parallel;
    auto t2 = Clock::now();

    combinePartials(frame, nblocks);
    copyOutFrom(plan, frame, frames_[T]);
    auto t3 = Clock::now();

    if (sample >= 0) cost.record(sample);
    return bookRegion(t0, t1, t2, t3, replayBlocks(block_cpu_, T));
  }

  /// Post/wait tables for one Doacross plan (built once, single-threaded
  /// — execFor only reaches this outside parallel regions).
  const DoaTables& doaTablesFor(const LoopPlan& plan) {
    auto it = doa_tables_.find(&plan);
    if (it != doa_tables_.end()) return it->second;
    DoaTables tables;
    SyncOrderInfo info = buildSyncOrderInfo(*plan.loop);
    std::map<const Stmt*, uint32_t> slot_of;
    for (const auto& req : plan.syncs) {
      if (req.eliminated) continue;
      auto [sit, fresh] = slot_of.try_emplace(
          req.source, static_cast<uint32_t>(tables.slots.size()));
      if (fresh) {
        tables.slots.push_back(req.source);
        if (info.immediate_post.count(req.source))
          tables.posts[req.source] = sit->second;
      }
      tables.waits[req.sink].push_back({sit->second, req.distance});
    }
    return doa_tables_.emplace(&plan, std::move(tables)).first->second;
  }

  /// Event-driven makespan model for a recorded Doacross region: replay
  /// the per-iteration busy/wait/post traces on T virtual workers under
  /// the canonical block-cyclic assignment (block b -> worker b mod T),
  /// honoring the sliding window. Processing blocks in ascending index
  /// order is valid because waits and the window gate only reference
  /// strictly smaller ordinals.
  static double doaSimulate(const std::vector<DoaIterRec>& recs, unsigned T,
                            int64_t ring, size_t nslots, int64_t chunk,
                            uint64_t nblocks) {
    uint64_t trip = recs.size();
    std::vector<double> post_time(trip * std::max<size_t>(nslots, 1), -1.0);
    std::vector<double> done(trip, 0.0);
    std::vector<double> wclock(T, 0.0);
    uint64_t c = static_cast<uint64_t>(chunk);
    for (uint64_t b = 0; b < nblocks; ++b) {
      unsigned w = static_cast<unsigned>(b % T);
      uint64_t first = b * c, last = std::min(trip, first + c);
      for (uint64_t o = first; o < last; ++o) {
        double t = wclock[w];
        if (static_cast<int64_t>(o) >= ring)
          t = std::max(t, done[o - static_cast<uint64_t>(ring)]);
        const DoaIterRec& r = recs[o];
        double prev = 0;
        for (const DoaEvent& ev : r.events) {
          t += std::max(0.0, ev.at - prev);
          prev = ev.at;
          if (ev.is_wait) {
            if (ev.dep >= 0 && static_cast<uint64_t>(ev.dep) < o) {
              double pt = post_time[static_cast<uint64_t>(ev.dep) * nslots +
                                    ev.slot];
              if (pt >= 0) t = std::max(t, pt);
            }
          } else {
            double& pt = post_time[o * nslots + ev.slot];
            if (pt < 0) pt = t;
          }
        }
        t += std::max(0.0, r.busy - prev);
        for (size_t s = 0; s < nslots; ++s) {
          double& pt = post_time[o * nslots + s];
          if (pt < 0) pt = t;  // end-of-iteration backstop post
        }
        done[o] = t;
        wclock[w] = t;
      }
    }
    double makespan = 0;
    for (double t : wclock) makespan = std::max(makespan, t);
    return makespan;
  }

  /// Pipelined (Doacross) execution: per-iteration post/wait cells in a
  /// ring of `window` slots; iteration o may not start before iteration
  /// o - window completed. Workers claim blocks in ascending order, so
  /// the lowest unfinished iteration is always running and the pipeline
  /// overlaps. Returns the simulated region cost.
  double execForDoacross(const ForStmt& loop, const LoopPlan& plan,
                         Frame& frame, const LoopRange& range) {
    auto t0 = Clock::now();
    unsigned T = pool_->size();
    // Fine-grained blocks by default: pipelining wants the smallest
    // grain that amortizes dispatch.
    const Blocks blocks(range, opt_.chunk >= 1 ? opt_.chunk : 1);
    uint64_t trip = blocks.trip;
    int64_t chunk = blocks.chunk;
    uint64_t nblocks = blocks.count;

    // One worker runs the ordinals in order, which satisfies every wait:
    // no ring, window gate, trace or per-iteration clock reads.
    if (T == 1) return execInline(loop, plan, frame, blocks, t0);

    int64_t ring = std::max<int64_t>(2, opt_.doacross_window);

    const DoaTables& tables = doaTablesFor(plan);
    size_t nslots = tables.slots.size();
    std::vector<DoaCell> cells(static_cast<size_t>(ring));
    for (auto& cell : cells) {
      cell.posted =
          std::make_unique<std::atomic<int64_t>[]>(std::max<size_t>(nslots, 1));
      for (size_t s = 0; s < nslots; ++s)
        cell.posted[s].store(-1, std::memory_order_relaxed);
    }

    // Record per-iteration sync traces for the makespan model, unless
    // the region is too large to afford it (then fall back to the DOALL
    // block replay, which ignores the waits).
    constexpr uint64_t kSimCap = uint64_t{1} << 16;
    bool recording = trip <= kSimCap;
    std::vector<DoaIterRec> recs(recording ? trip : 0);

    prepareFrames(plan, frame, T, nblocks);
    block_cpu_.assign(nblocks, 0.0);
    std::atomic<uint64_t> waits_total{0};
    // Reductions recognized by the scalar phase before the array phase
    // fell back take the same per-block partials and block-order combine
    // as DOALL.

    auto t1 = Clock::now();
    bool prev_in_parallel = in_parallel_;
    in_parallel_ = true;
    runBlocks(*pool_, range, chunk,
              [&](unsigned t, const LoopBlock& blk) {
                Frame& tf = frames_[blk.index == nblocks - 1 ? T : t];
                DoaCtx ctx;
                ctx.tables = &tables;
                ctx.cells = cells.data();
                ctx.ring = ring;
                ctx.pool = pool_.get();
                DoaScope scope(&ctx);
                double block_busy = 0;
                auto iterate = [&](int64_t o) {
                  // Window gate: wait for iteration o - ring (same ring
                  // cell, previous lap) to fully complete.
                  if (o >= ring) {
                    DoaCell& gate = cells[o % ring];
                    while (gate.done.load(std::memory_order_acquire) <
                           o - ring) {
                      if (pool_->cancelRequested()) throw DoaCancel{};
                      std::this_thread::yield();
                    }
                  }
                  ctx.ordinal = o;
                  ctx.rec =
                      recording ? &recs[static_cast<uint64_t>(o)] : nullptr;
                  ctx.cpu_base = threadCpuSecondsNow();
                  ctx.spin_cpu = 0;
                  execBlock(*loop.body, tf);
                  double busy_it = ctx.busyNow();
                  if (ctx.rec) ctx.rec->busy = busy_it;
                  block_busy += busy_it;
                  // End of iteration: backstop-post every slot (covers
                  // skipped conditional sources and inner-loop sources),
                  // then publish completion.
                  DoaCell& cell = cells[o % ring];
                  for (size_t s = 0; s < nslots; ++s)
                    cell.posted[s].store(o, std::memory_order_release);
                  cell.done.store(o, std::memory_order_release);
                  return true;
                };
                try {
                  walkBlocks(loop, tf, blocks, blk.index, blk.index + 1,
                             iterate);
                } catch (const DoaCancel&) {
                }
                block_cpu_[blk.index] = block_busy;
                waits_total.fetch_add(ctx.wait_count,
                                      std::memory_order_relaxed);
              });
    in_parallel_ = prev_in_parallel;
    auto t2 = Clock::now();

    combinePartials(frame, nblocks);
    copyOutFrom(plan, frame, frames_[T]);
    stats_.doacross_waits += waits_total.load(std::memory_order_relaxed);
    auto t3 = Clock::now();

    double region_model;
    if (recording && !pool_->cancelRequested()) {
      region_model = doaSimulate(recs, T, ring, std::max<size_t>(nslots, 1),
                                 chunk, nblocks);
    } else {
      region_model = replayBlocks(block_cpu_, T);
    }
    return bookRegion(t0, t1, t2, t3, region_model);
  }

  const Program& program_;
  InterpOptions opt_;
  InterpStats stats_;
  std::unique_ptr<ThreadPool> pool_;
  std::map<const LoopPlan*, DoaTables> doa_tables_;
  // Region state reused across entries (see prepareFrames): frame slots
  // 0..T-1 per worker plus slot T for the final block, their private
  // buffers (privates_[slot][k] backs plan.privatized[k]), per-block
  // reduction partials (block-major), per-block thread-CPU cost and each
  // worker's last thread-CPU clock read.
  std::vector<Frame> frames_;
  std::vector<std::vector<std::shared_ptr<ArrayStorage>>> privates_;
  std::vector<RedSlot> red_slots_;
  std::vector<RedPart> partials_;
  std::vector<double> block_cpu_;
  std::vector<double> cpu_mark_;
  /// Granularity state, read and written only on the dispatching thread.
  std::unordered_map<const ForStmt*, LoopCost> loop_cost_;
  std::mutex sink_mu_;
  bool in_parallel_ = false;
  bool shadowing_ = false;
  double parallel_wall_ = 0;
  double parallel_simulated_ = 0;
};

}  // namespace

InterpStats execute(const Program& program, const InterpOptions& options) {
  Interp interp(program, options);
  return interp.run();
}

}  // namespace padfa
