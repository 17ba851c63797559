// Unit tests for the runtime substrate: thread pool, the block
// scheduler's claim rule, and the shadow-memory engine's ELPD verdict
// logic in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

#include "audit/race_oracle.h"
#include "runtime/scheduler.h"
#include "runtime/thread_pool.h"

namespace padfa {
namespace {

// ---- block scheduler ----

TEST(Scheduler, ResolveChunkAutoRule) {
  EXPECT_EQ(resolveChunk(100, 16), 16);   // explicit request wins
  EXPECT_EQ(resolveChunk(0, 0), 1);       // floor 1
  EXPECT_EQ(resolveChunk(64, 0), 1);
  EXPECT_EQ(resolveChunk(6400, 0), 100);  // trip / 64
  EXPECT_EQ(resolveChunk(uint64_t{1} << 30, 0), 4096);  // ceiling
}

TEST(Scheduler, BlockDecompositionCoversExactly) {
  LoopRange r{1, 20, 3};  // 1,4,7,10,13,16,19
  EXPECT_EQ(loopTripCount(r), 7u);
  uint64_t nb = blockCount(7, 2);
  EXPECT_EQ(nb, 4u);
  std::vector<int64_t> covered;
  int64_t ordinal = 0;
  for (uint64_t b = 0; b < nb; ++b) {
    LoopBlock blk = blockAt(r, 2, b);
    EXPECT_EQ(blk.index, b);
    EXPECT_EQ(blk.first_ordinal, ordinal);
    for (int64_t i = blk.first; i <= blk.last; i += 3) covered.push_back(i);
    ordinal += static_cast<int64_t>(blk.iters);
  }
  EXPECT_EQ(covered, (std::vector<int64_t>{1, 4, 7, 10, 13, 16, 19}));
}

TEST(Scheduler, RunsEachBlockExactlyOnce) {
  LoopRange r{0, 99, 1};
  const int64_t chunk = 4;
  const uint64_t nb = blockCount(loopTripCount(r), chunk);
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(nb);
  runBlocks(pool, r, chunk, [&](unsigned, const LoopBlock& blk) {
    hits[blk.index].fetch_add(1);
  });
  for (uint64_t b = 0; b < nb; ++b) EXPECT_EQ(hits[b].load(), 1) << b;
}

TEST(Scheduler, WorkersSeeBlocksInIncreasingOrder) {
  // Every worker's claims come from one increasing counter, so each
  // worker's sequence is sorted.
  LoopRange r{0, 499, 1};
  ThreadPool pool(4);
  std::vector<std::vector<uint64_t>> seen(pool.size());
  runBlocks(pool, r, 1, [&](unsigned t, const LoopBlock& blk) {
    seen[t].push_back(blk.index);
  });
  for (const auto& order : seen)
    for (size_t i = 1; i < order.size(); ++i)
      EXPECT_LT(order[i - 1], order[i]);
}

TEST(Scheduler, AscendingClaimsStartLowAndNeverSkipAhead) {
  // The claim rule hands the lowest unclaimed block to the next idle
  // worker. Each worker's first block waits until all four workers hold
  // one, so the first blocks are exactly {0, 1, 2, 3}; afterwards,
  // whenever a block starts, only blocks other workers hold (at most
  // T - 1) may lie below it unstarted. An even split of the blocks would
  // start the workers at {0, 128, 256, 384}.
  constexpr unsigned T = 4;
  constexpr uint64_t kBlocks = 512;
  ThreadPool pool(T);
  ASSERT_EQ(pool.size(), T);
  std::vector<std::atomic<bool>> started(kBlocks);
  std::vector<uint64_t> first(T, kBlocks);
  std::atomic<unsigned> arrived{0};
  std::vector<uint64_t> worst(T, 0);
  runBlocks(
      pool, LoopRange{0, kBlocks - 1, 1}, 1,
      [&](unsigned t, const LoopBlock& blk) {
        uint64_t unstarted = 0;
        for (uint64_t b = 0; b < blk.index; ++b)
          if (!started[b].load(std::memory_order_seq_cst)) ++unstarted;
        worst[t] = std::max(worst[t], unstarted);
        started[blk.index].store(true, std::memory_order_seq_cst);
        if (first[t] == kBlocks) {
          first[t] = blk.index;
          arrived.fetch_add(1, std::memory_order_seq_cst);
          while (arrived.load(std::memory_order_seq_cst) < T)
            std::this_thread::yield();
        }
      });
  std::sort(first.begin(), first.end());
  EXPECT_EQ(first, (std::vector<uint64_t>{0, 1, 2, 3}));
  for (unsigned t = 0; t < T; ++t)
    EXPECT_LE(worst[t], T - 1) << "worker " << t;
  for (uint64_t b = 0; b < kBlocks; ++b) EXPECT_TRUE(started[b].load());
}

TEST(ThreadPool, RunsAllWorkers) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  std::vector<int> hits(4, 0);
  pool.runOnAll([&](unsigned t) {
    hits[t] = 1;
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 4);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 4);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  bool ran = false;
  pool.runOnAll([&](unsigned t) {
    EXPECT_EQ(t, 0u);
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round)
    pool.runOnAll([&](unsigned) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPool, PropagatesWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.runOnAll([](unsigned t) {
        if (t == 2) throw std::runtime_error("boom");
      }),
      std::runtime_error);
  // Pool must remain usable after an exception.
  std::atomic<int> count{0};
  pool.runOnAll([&](unsigned) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, WorkerFailureRequestsCooperativeCancel) {
  // One worker throws; the others poll cancelRequested() between chunks
  // of work (as the interpreter does between loop iterations) and must
  // observe the flag and stop early instead of grinding to completion.
  ThreadPool pool(4);
  std::atomic<int> chunks_done{0};
  EXPECT_THROW(
      pool.runOnAll([&](unsigned t) {
        if (t == 0) throw std::runtime_error("boom");
        for (int i = 0; i < 1000000; ++i) {
          if (pool.cancelRequested()) return;
          // Simulated chunk of work; keep it tiny so polling dominates.
          chunks_done.fetch_add(1, std::memory_order_relaxed);
        }
      }),
      std::runtime_error);
  EXPECT_LT(chunks_done.load(), 3 * 1000000)
      << "siblings never observed the cancellation request";
  // The flag is reset on the next job: all workers run to completion.
  std::atomic<int> full_runs{0};
  pool.runOnAll([&](unsigned) {
    if (!pool.cancelRequested()) full_runs.fetch_add(1);
  });
  EXPECT_EQ(full_runs.load(), 4);
}

// ---- ELPD on the shadow-memory engine, in isolation ----

class ElpdUnit : public ::testing::Test {
 protected:
  ForStmt loop_;
  RaceOracle c_;
  int buf_[1] = {0};  // identity only
  const void* buffer() const { return buf_; }

  void SetUp() override { c_.instrument(&loop_); }

  void access(int64_t iter, size_t elem, bool write) {
    c_.loopIterStart(&loop_, iter);
    c_.recordAccess(buffer(), elem, 100, write);
  }
};

TEST_F(ElpdUnit, UnexecutedLoopHasNoVerdict) {
  auto v = c_.verdict(&loop_);
  EXPECT_FALSE(v.executed);
  EXPECT_FALSE(v.parallelizable());
}

TEST_F(ElpdUnit, DisjointWritesIndependent) {
  c_.loopEnter(&loop_);
  access(0, 0, true);
  access(1, 1, true);
  access(2, 2, true);
  c_.loopExit(&loop_);
  auto v = c_.verdict(&loop_);
  EXPECT_TRUE(v.independent());
  EXPECT_EQ(v.accesses, 3u);
}

TEST_F(ElpdUnit, WriteThenReadAcrossIterationsIsFlow) {
  c_.loopEnter(&loop_);
  access(0, 5, true);
  access(1, 5, false);  // reads the value iteration 0 produced
  c_.loopExit(&loop_);
  auto v = c_.verdict(&loop_);
  EXPECT_TRUE(v.conflict);
  EXPECT_TRUE(v.flow);
  EXPECT_FALSE(v.parallelizable());
}

TEST_F(ElpdUnit, WriteBeforeReadInOwnIterationIsPrivatizable) {
  c_.loopEnter(&loop_);
  access(0, 5, true);
  access(0, 5, false);
  access(1, 5, true);  // rewrites before reading
  access(1, 5, false);
  c_.loopExit(&loop_);
  auto v = c_.verdict(&loop_);
  EXPECT_TRUE(v.conflict);      // same element written by two iterations
  EXPECT_FALSE(v.flow);         // but each iteration reads its own value
  EXPECT_TRUE(v.privatizable());
}

TEST_F(ElpdUnit, ReadBeforeLaterWriteIsAntiOnly) {
  c_.loopEnter(&loop_);
  access(0, 7, false);  // reads original value
  access(2, 7, true);   // later iteration overwrites
  c_.loopExit(&loop_);
  auto v = c_.verdict(&loop_);
  EXPECT_TRUE(v.conflict);
  EXPECT_FALSE(v.flow);  // copy-in privatization preserves semantics
}

TEST_F(ElpdUnit, MultipleWritesInOneIterationNoConflict) {
  c_.loopEnter(&loop_);
  access(3, 9, true);
  access(3, 9, true);
  access(3, 9, false);
  c_.loopExit(&loop_);
  EXPECT_TRUE(c_.verdict(&loop_).independent());
}

TEST_F(ElpdUnit, ReentryJudgesEachInvocationAlone) {
  // The second invocation rewrites and reads elements the first one
  // wrote, at other ordinals: no cross-iteration traffic inside either.
  c_.loopEnter(&loop_);
  access(0, 5, true);
  access(1, 6, true);
  c_.loopExit(&loop_);
  c_.loopEnter(&loop_);
  access(0, 6, true);   // written by ordinal 1 of the first invocation
  access(1, 5, false);  // written by ordinal 0 of the first invocation
  c_.loopExit(&loop_);
  EXPECT_TRUE(c_.verdict(&loop_).independent());
  // A flow inside a later invocation counts, and a clean invocation
  // after it does not clear the verdict.
  c_.loopEnter(&loop_);
  access(0, 7, true);
  access(1, 7, false);
  c_.loopExit(&loop_);
  c_.loopEnter(&loop_);
  access(0, 8, true);
  c_.loopExit(&loop_);
  EXPECT_TRUE(c_.verdict(&loop_).flow);
}

TEST_F(ElpdUnit, BufferRebornAtFreedAddressStartsFresh) {
  // Iteration 0 writes an element; the buffer dies and the heap hands its
  // address to a new array, whose element iteration 1 reads: no value
  // crosses iterations.
  c_.loopEnter(&loop_);
  access(0, 5, true);
  c_.loopIterStart(&loop_, 1);
  c_.bufferAllocated(buffer());
  access(1, 5, false);
  c_.loopExit(&loop_);
  EXPECT_TRUE(c_.verdict(&loop_).independent());
}

TEST_F(ElpdUnit, AccessesOutsideInstrumentedLoopIgnored) {
  // No loopEnter: the access must not count.
  c_.recordAccess(buffer(), 0, 100, true);
  EXPECT_EQ(c_.totalAccesses(), 0u);
}

TEST_F(ElpdUnit, NestedCollectorsBothRecord) {
  ForStmt inner;
  c_.instrument(&inner);
  c_.loopEnter(&loop_);
  c_.loopIterStart(&loop_, 0);
  c_.loopEnter(&inner);
  c_.loopIterStart(&inner, 0);
  c_.recordAccess(buffer(), 4, 100, true);
  c_.loopExit(&inner);
  c_.loopExit(&loop_);
  EXPECT_EQ(c_.verdict(&loop_).accesses, 1u);
  EXPECT_EQ(c_.verdict(&inner).accesses, 1u);
}

}  // namespace
}  // namespace padfa
