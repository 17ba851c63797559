// The Extended Lazy Privatizing Doall (ELPD) run-time test.
//
// The paper determines the set of "inherently parallel" loops left behind
// by the compiler by instrumenting every array access of every candidate
// loop with shadow-array marking (Rauchwerger & Padua's LPD test, extended
// per So/Moon/Hall). After a sequential instrumented run, each loop is
// classified per input:
//   * independent  — no element is written in one iteration and accessed
//                    in another;
//   * privatizable — conflicts exist, but no iteration reads an element
//                    that an earlier iteration wrote before writing it
//                    itself (no cross-iteration flow of values);
//   * not parallel — a cross-iteration flow was observed.
//
// The collector also counts instrumented accesses: this is the run-time
// overhead an inspector/executor pays, which the paper contrasts with its
// O(#test-atoms) predicated tests (Experiment E5).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "lang/ast.h"

namespace padfa {

class ElpdCollector {
 public:
  /// Mark a loop as instrumented. Accesses are recorded only while an
  /// instrumented loop is active.
  void instrument(const ForStmt* loop) { instrumented_[loop] = {}; }
  bool isInstrumented(const ForStmt* loop) const {
    return instrumented_.count(loop) > 0;
  }

  void loopEnter(const ForStmt* loop);
  void loopIterStart(const ForStmt* loop, int64_t iter_ordinal);
  void loopExit(const ForStmt* loop);

  /// Record one element access from the interpreter. `buffer` is the
  /// identity of the underlying element buffer (shared by reshaped
  /// views), so aliased accesses are detected correctly.
  void recordAccess(const void* buffer, size_t flat_index,
                    size_t buffer_size, bool is_write);

  struct Verdict {
    bool executed = false;      // the loop ran at least one iteration
    bool conflict = false;      // some element touched by >1 iteration w/ a write
    bool flow = false;          // cross-iteration value flow observed
    uint64_t accesses = 0;      // instrumented access count (overhead proxy)

    bool independent() const { return executed && !conflict; }
    bool privatizable() const { return executed && conflict && !flow; }
    bool parallelizable() const { return executed && !flow; }
  };

  Verdict verdict(const ForStmt* loop) const;
  uint64_t totalAccesses() const { return total_accesses_; }

 private:
  // Marks are iteration stamps: the invocation's base plus the
  // iteration ordinal. A mark below the current invocation's base was
  // left by an earlier invocation and reads as "never", so re-entering
  // a loop judges it afresh without clearing its shadows.
  struct Shadow {
    // Per element, -1 = never.
    std::vector<int64_t> first_write;
    std::vector<int64_t> last_write;
    std::vector<int64_t> any_read;  // iteration of some read, or -1
    void ensure(size_t n) {
      if (first_write.size() < n) {
        first_write.resize(n, -1);
        last_write.resize(n, -1);
        any_read.resize(n, -1);
      }
    }
  };
  struct LoopState {
    bool executed = false;
    bool conflict = false;
    bool flow = false;
    uint64_t accesses = 0;
    int64_t cur_iter = -1;
    int64_t base = 0;       // stamp of this invocation's iteration 0
    int64_t next_base = 0;  // one past the highest stamp handed out
    std::map<const void*, Shadow> shadows;
  };

  std::map<const ForStmt*, LoopState> instrumented_;
  std::vector<LoopState*> active_;
  uint64_t total_accesses_ = 0;
};

}  // namespace padfa
