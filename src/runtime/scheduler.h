// Multi-policy block scheduler for parallel loop execution.
//
// The iteration space is first cut into fixed-size *blocks* of `chunk`
// consecutive iterations. The decomposition depends only on the loop
// bounds, step, and chunk — never on the thread count or the policy —
// so any per-block computation (e.g. per-block reduction partials
// combined in block-index order) is bit-identical across
// static/dynamic/guided/steal and across 1..N workers.
//
// Policies (PADFA_SCHED):
//  * static  — worker t owns a contiguous run of blocks (the SUIF-style
//    split the interpreter used before this scheduler existed).
//  * dynamic — workers claim one block at a time from a shared counter.
//  * guided  — workers claim geometrically shrinking runs of blocks
//    (remaining / 2T, min 1).
//  * steal   — per-worker deques of blocks seeded with the static
//    split; an owner pops its lowest block from the front, an idle
//    worker steals the upper half of the richest victim's deque.
//
// Ordering guarantee (Doacross execution relies on it): a worker
// executes the blocks it holds in increasing block order, and it only
// acquires new blocks while idle — never while a block is in flight.
// Consequently, whenever a worker is executing block b, every block
// still in its deque is > b; the minimal incomplete iteration is
// therefore always either executing (and its post/wait predecessors
// are complete) or at the front of an idle worker's claim, so
// cross-iteration waits can never deadlock under any policy. See
// DESIGN.md §14.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "runtime/thread_pool.h"

namespace padfa {

enum class SchedPolicy : uint8_t { Static, Dynamic, Guided, Steal };

const char* schedPolicyName(SchedPolicy p);

/// Parse a policy name ("static", "dynamic", "guided", "steal");
/// returns fallback on anything else.
SchedPolicy schedPolicyFromName(const std::string& name,
                                SchedPolicy fallback = SchedPolicy::Steal);

/// PADFA_SCHED: scheduling policy for interpreted parallel loops and
/// the analysis-level corpus fan-out. Default: steal.
SchedPolicy schedPolicyFromEnv();

/// PADFA_CHUNK: iterations per block. 0 (the default) selects the
/// automatic rule: trip/64 clamped to [1, 4096] for DOALL loops and 1
/// for Doacross loops (pipelining wants fine grain).
int64_t schedChunkFromEnv();

/// PADFA_DOACROSS_WINDOW: bound on the number of in-flight iterations
/// of a Doacross loop (iteration i may not start before iteration
/// i - window has fully completed). Default 64, clamped to >= 2. A
/// runtime knob only — plans and their signatures never depend on it.
int64_t doacrossWindowFromEnv();

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

/// Optional per-worker bracket around one runBlocks call: `enter(t)` runs
/// on worker t before it acquires its first block, `leave(t)` after it
/// finished its last one (skipped on a worker whose `body` threw). Lets a
/// caller read a per-thread clock once per worker per region instead of
/// twice per block.
struct WorkerBracket {
  std::function<void(unsigned)> enter;
  std::function<void(unsigned)> leave;
};

/// Execute `body(worker, block)` for every block of the decomposition
/// of `r`, dispatching pool.size() workers under `policy`. Each block
/// runs exactly once; each worker sees its blocks in increasing index
/// order and acquires blocks only between executions. Exceptions from
/// `body` propagate per ThreadPool::runOnAll semantics (first wins,
/// siblings see cancelRequested()). `body` is also expected to poll
/// pool.cancelRequested() in long iterations.
void runBlocks(ThreadPool& pool, const LoopRange& r, int64_t chunk,
               SchedPolicy policy,
               const std::function<void(unsigned, const LoopBlock&)>& body,
               const WorkerBracket& bracket = {});

}  // namespace padfa
