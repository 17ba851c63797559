#include "runtime/scheduler.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace padfa {

const char* schedPolicyName(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::Static:
      return "static";
    case SchedPolicy::Dynamic:
      return "dynamic";
    case SchedPolicy::Guided:
      return "guided";
    case SchedPolicy::Steal:
      return "steal";
  }
  return "?";
}

SchedPolicy schedPolicyFromName(const std::string& name,
                                SchedPolicy fallback) {
  if (name == "static") return SchedPolicy::Static;
  if (name == "dynamic") return SchedPolicy::Dynamic;
  if (name == "guided") return SchedPolicy::Guided;
  if (name == "steal") return SchedPolicy::Steal;
  return fallback;
}

SchedPolicy schedPolicyFromEnv() {
  if (const char* env = std::getenv("PADFA_SCHED"))
    return schedPolicyFromName(env);
  return SchedPolicy::Steal;
}

int64_t schedChunkFromEnv() {
  if (const char* env = std::getenv("PADFA_CHUNK")) {
    long v = std::strtol(env, nullptr, 10);
    if (v >= 1 && v <= (1l << 30)) return v;
  }
  return 0;
}

int64_t doacrossWindowFromEnv() {
  if (const char* env = std::getenv("PADFA_DOACROSS_WINDOW")) {
    long v = std::strtol(env, nullptr, 10);
    if (v >= 2 && v <= (1l << 20)) return v;
  }
  return 64;
}

uint64_t loopTripCount(const LoopRange& r) {
  if (r.step == 0) return 0;
  if (r.step > 0 ? r.lo > r.hi : r.lo < r.hi) return 0;
  uint64_t span =
      r.step > 0 ? static_cast<uint64_t>(r.hi) - static_cast<uint64_t>(r.lo)
                 : static_cast<uint64_t>(r.lo) - static_cast<uint64_t>(r.hi);
  uint64_t mag = r.step > 0 ? static_cast<uint64_t>(r.step)
                            : ~static_cast<uint64_t>(r.step) + 1;
  uint64_t count = span / mag;
  return count == UINT64_MAX ? count : count + 1;  // saturate
}

int64_t resolveChunk(uint64_t trip, int64_t requested) {
  if (requested >= 1) return requested;
  return static_cast<int64_t>(std::clamp<uint64_t>(trip / 64, 1, 4096));
}

uint64_t blockCount(uint64_t trip, int64_t chunk) {
  if (trip == 0 || chunk <= 0) return 0;
  uint64_t c = static_cast<uint64_t>(chunk);
  return trip / c + (trip % c != 0 ? 1 : 0);
}

LoopBlock blockAt(const LoopRange& r, int64_t chunk, uint64_t index) {
  LoopBlock b;
  b.index = index;
  uint64_t trip = loopTripCount(r);
  uint64_t c = static_cast<uint64_t>(chunk);
  uint64_t start = index * c;
  uint64_t n = std::min<uint64_t>(c, trip - start);
  b.first_ordinal = static_cast<int64_t>(start);
  b.iters = n;
  // lo + ordinal*step in wrapping uint64 arithmetic (exact: the result
  // lies within the int64 iteration range).
  b.first = static_cast<int64_t>(static_cast<uint64_t>(r.lo) +
                                 start * static_cast<uint64_t>(r.step));
  b.last = static_cast<int64_t>(static_cast<uint64_t>(r.lo) +
                                (start + n - 1) *
                                    static_cast<uint64_t>(r.step));
  return b;
}

namespace {

/// Per-worker deque of blocks for the steal policy, stored as a
/// half-open index range [lo, hi): the owner pops from the front
/// (lowest block), thieves take the upper half from the back.
struct StealDeque {
  std::mutex mu;
  uint64_t lo = 0;
  uint64_t hi = 0;
};

}  // namespace

void runBlocks(ThreadPool& pool, const LoopRange& r, int64_t chunk,
               SchedPolicy policy,
               const std::function<void(unsigned, const LoopBlock&)>& body,
               const WorkerBracket& bracket) {
  uint64_t trip = loopTripCount(r);
  uint64_t nblocks = blockCount(trip, chunk);
  if (nblocks == 0) return;
  unsigned T = pool.size();
  auto dispatch = [&](const auto& worker) {
    pool.runOnAll([&](unsigned t) {
      if (bracket.enter) bracket.enter(t);
      worker(t);
      if (bracket.leave) bracket.leave(t);
    });
  };

  switch (policy) {
    case SchedPolicy::Static: {
      // Near-equal contiguous runs of blocks, low indices first.
      uint64_t base = nblocks / T, rem = nblocks % T;
      std::vector<std::pair<uint64_t, uint64_t>> runs(T);
      uint64_t at = 0;
      for (unsigned t = 0; t < T; ++t) {
        uint64_t n = base + (t < rem ? 1 : 0);
        runs[t] = {at, at + n};
        at += n;
      }
      dispatch([&](unsigned t) {
        for (uint64_t i = runs[t].first; i < runs[t].second; ++i) {
          if (pool.cancelRequested()) return;
          body(t, blockAt(r, chunk, i));
        }
      });
      return;
    }
    case SchedPolicy::Dynamic: {
      std::atomic<uint64_t> next{0};
      dispatch([&](unsigned t) {
        while (!pool.cancelRequested()) {
          uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= nblocks) return;
          body(t, blockAt(r, chunk, i));
        }
      });
      return;
    }
    case SchedPolicy::Guided: {
      std::atomic<uint64_t> next{0};
      dispatch([&](unsigned t) {
        while (!pool.cancelRequested()) {
          uint64_t cur = next.load(std::memory_order_relaxed);
          uint64_t take;
          do {
            if (cur >= nblocks) return;
            take = std::max<uint64_t>((nblocks - cur) / (2 * T), 1);
          } while (!next.compare_exchange_weak(cur, cur + take,
                                               std::memory_order_relaxed));
          for (uint64_t i = cur; i < cur + take; ++i) {
            if (pool.cancelRequested()) return;
            body(t, blockAt(r, chunk, i));
          }
        }
      });
      return;
    }
    case SchedPolicy::Steal: {
      std::vector<StealDeque> deques(T);
      {
        uint64_t base = nblocks / T, rem = nblocks % T;
        uint64_t at = 0;
        for (unsigned t = 0; t < T; ++t) {
          uint64_t n = base + (t < rem ? 1 : 0);
          deques[t].lo = at;
          deques[t].hi = at + n;
          at += n;
        }
      }
      dispatch([&](unsigned t) {
        while (!pool.cancelRequested()) {
          uint64_t i = 0;
          bool have = false;
          {
            std::lock_guard<std::mutex> lock(deques[t].mu);
            if (deques[t].lo < deques[t].hi) {
              i = deques[t].lo++;
              have = true;
            }
          }
          if (!have) {
            // Own deque empty: steal the upper half of the richest
            // victim's remaining range. One full scan with no work
            // anywhere means every block is claimed — done.
            unsigned victim = T;
            uint64_t best = 0;
            for (unsigned v = 0; v < T; ++v) {
              if (v == t) continue;
              std::lock_guard<std::mutex> lock(deques[v].mu);
              uint64_t n = deques[v].hi - deques[v].lo;
              if (n > best) {
                best = n;
                victim = v;
              }
            }
            if (victim == T) return;
            uint64_t slo = 0, shi = 0;
            {
              std::lock_guard<std::mutex> lock(deques[victim].mu);
              uint64_t n = deques[victim].hi - deques[victim].lo;
              if (n == 0) continue;  // lost the race; rescan
              uint64_t take = n - n / 2;  // upper half, rounded up
              shi = deques[victim].hi;
              slo = shi - take;
              deques[victim].hi = slo;
            }
            std::lock_guard<std::mutex> lock(deques[t].mu);
            deques[t].lo = slo;
            deques[t].hi = shi;
            continue;
          }
          body(t, blockAt(r, chunk, i));
        }
      });
      return;
    }
  }
}

}  // namespace padfa
