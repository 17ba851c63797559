#include "runtime/elpd.h"

#include <algorithm>

namespace padfa {

void ElpdCollector::loopEnter(const ForStmt* loop) {
  auto it = instrumented_.find(loop);
  if (it == instrumented_.end()) return;
  // LPD judges each invocation on its own: marks of an earlier
  // invocation fall below the new base and read as "never". Verdict
  // flags keep accumulating across invocations.
  it->second.base = it->second.next_base;
  it->second.cur_iter = -1;
  active_.push_back(&it->second);
}

void ElpdCollector::loopIterStart(const ForStmt* loop, int64_t iter) {
  auto it = instrumented_.find(loop);
  if (it == instrumented_.end()) return;
  it->second.cur_iter = iter;
  it->second.next_base =
      std::max(it->second.next_base, it->second.base + iter + 1);
  it->second.executed = true;
}

void ElpdCollector::loopExit(const ForStmt* loop) {
  auto it = instrumented_.find(loop);
  if (it == instrumented_.end()) return;
  if (!active_.empty() && active_.back() == &it->second) active_.pop_back();
  it->second.cur_iter = -1;
}

void ElpdCollector::recordAccess(const void* buffer, size_t flat_index,
                                 size_t buffer_size, bool is_write) {
  for (LoopState* ls : active_) {
    if (ls->cur_iter < 0) continue;
    ++ls->accesses;
    ++total_accesses_;
    Shadow& sh = ls->shadows[buffer];
    sh.ensure(buffer_size);
    int64_t it = ls->base + ls->cur_iter;
    auto mark = [ls](int64_t m) { return m >= ls->base ? m : -1; };
    if (is_write) {
      if (mark(sh.first_write[flat_index]) == -1) {
        sh.first_write[flat_index] = it;
      } else if (sh.first_write[flat_index] != it ||
                 sh.last_write[flat_index] != it) {
        ls->conflict = true;
      }
      sh.last_write[flat_index] = it;
      // A write in a different iteration than a recorded read is a
      // conflict (anti/output dependence) — privatization may fix it.
      int64_t ar = mark(sh.any_read[flat_index]);
      if (ar != -1 && ar != it) ls->conflict = true;
    } else {
      sh.any_read[flat_index] = it;
      int64_t lw = mark(sh.last_write[flat_index]);
      if (lw != -1 && lw != it) {
        ls->conflict = true;
        // Read of a value produced by an earlier iteration, and this
        // iteration has not (yet) written the element itself: flow.
        if (lw < it) ls->flow = true;
      }
    }
  }
}

ElpdCollector::Verdict ElpdCollector::verdict(const ForStmt* loop) const {
  Verdict v;
  auto it = instrumented_.find(loop);
  if (it == instrumented_.end()) return v;
  v.executed = it->second.executed;
  v.conflict = it->second.conflict;
  v.flow = it->second.flow;
  v.accesses = it->second.accesses;
  return v;
}

}  // namespace padfa
