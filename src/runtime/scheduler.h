// Block scheduler for parallel loop execution.
//
// The iteration space is first cut into fixed-size *blocks* of `chunk`
// consecutive iterations. The decomposition depends only on the loop
// bounds, step, and chunk — never on the thread count or on which
// worker claims a block — so any per-block computation (e.g. per-block
// reduction partials combined in block-index order) is bit-identical
// across 1..N workers.
//
// One claim rule for DOALL and Doacross regions alike (DESIGN.md
// §14.4): workers claim one block at a time from a shared counter, so
// the lowest unclaimed block always goes to the next idle worker. A
// worker acquires a block only while idle, hence whenever block b
// starts, at most T - 1 lower blocks are unstarted (each held by
// another worker about to start it). The minimal incomplete iteration
// is therefore always executing or about to, with every lower ordinal
// complete, so cross-iteration waits cannot deadlock and post/wait
// pipelining overlaps (DESIGN.md §14.3).
#pragma once

#include <cstdint>
#include <functional>

#include "runtime/thread_pool.h"

namespace padfa {

/// An inclusive iteration range with stride. `step` may be negative;
/// the range is empty when it runs against the step direction.
struct LoopRange {
  int64_t lo = 0;
  int64_t hi = 0;
  int64_t step = 1;
};

/// One scheduler block: iterations `first..last` (inclusive, in step
/// direction), covering ordinals [first_ordinal, first_ordinal+iters).
struct LoopBlock {
  uint64_t index = 0;
  int64_t first = 0;
  int64_t last = 0;
  int64_t first_ordinal = 0;
  uint64_t iters = 0;
};

/// Number of iterations in `r` (0 when empty; saturates at UINT64_MAX
/// for the full-domain unit-stride range, which is unreachable through
/// the interpreter anyway).
uint64_t loopTripCount(const LoopRange& r);

/// Apply the automatic chunk rule: a requested chunk >= 1 is used as
/// is; 0 selects trip/64 clamped to [1, 4096].
int64_t resolveChunk(uint64_t trip, int64_t requested);

/// ceil(trip / chunk).
uint64_t blockCount(uint64_t trip, int64_t chunk);

/// The `index`-th block of the decomposition of `r` into `chunk`-sized
/// blocks.
LoopBlock blockAt(const LoopRange& r, int64_t chunk, uint64_t index);

/// Signature of a region's per-block work: `body(worker, block)`.
using BlockBody = std::function<void(unsigned, const LoopBlock&)>;

/// Execute `body(worker, block)` for every block of the decomposition
/// of `r` on pool.size() workers, claimed in ascending index order. Each
/// block runs exactly once. Exceptions from `body` propagate per
/// ThreadPool::runOnAll semantics (first wins, siblings see
/// cancelRequested()). `body` is also expected to poll
/// pool.cancelRequested() in long iterations.
void runBlocks(ThreadPool& pool, const LoopRange& r, int64_t chunk,
               const BlockBody& body);

}  // namespace padfa
