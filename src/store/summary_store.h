// Crash-safe persistence for the analysis caches.
//
// A SummaryStore owns one snapshot file (`summary.snap` inside its
// directory) holding the process's Presburger feasibility cache, the
// plan signature and rendered responses of every source the daemon has
// analyzed (keyed by source content hash), and the deep per-procedure
// records of incremental re-analysis. Durability contract:
//
//   save():  write-to-temp + fsync(file) + atomic rename + fsync(dir).
//            A crash at any instant leaves either the old snapshot or
//            the new one — never a torn file at the live name.
//   open():  load + decode the snapshot. ANY defect (bad magic, wrong
//            version, CRC mismatch, truncation, trailing bytes) moves
//            the file aside to `summary.snap.quarantine-<k>`, logs,
//            counts, and starts cold. Quarantined bytes are preserved
//            for post-mortem, and a later save() recreates a clean
//            snapshot at the live name.
//
// The store never *answers* anything the analysis could not recompute:
// feasibility entries are renaming-invariant facts keyed by the
// canonical system encoding, and response records are keyed by the
// exact source bytes' content hash plus the store format version — so a
// loaded record can be stale only if the snapshot survived a format
// change, which the version check rejects wholesale. Corruption and
// staleness therefore cost re-analysis time, never a wrong plan.
//
// Thread safety: all public methods lock; the daemon's worker threads
// share one instance.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "store/snapshot.h"

namespace padfa::store {

struct StoreStats {
  bool load_attempted = false;
  bool loaded = false;          ///< a snapshot was read and decoded cleanly
  std::string load_error;       ///< decode failure detail, when quarantined
  uint64_t quarantined = 0;     ///< snapshots moved aside (lifetime of dir)
  uint64_t saves = 0;
  uint64_t loaded_feasibility = 0;
  uint64_t loaded_responses = 0;
  uint64_t loaded_deep = 0;  ///< deep per-procedure records in the snapshot
};

class SummaryStore {
 public:
  /// `dir` empty => ephemeral store (no disk I/O; open/save are no-ops).
  explicit SummaryStore(std::string dir);

  /// Load the snapshot if one exists. Returns true iff a snapshot was
  /// decoded cleanly (absent file is not an error — cold start).
  bool open();

  /// Push loaded feasibility entries into the process-wide
  /// FeasibilityCache, and pull the cache's current contents back into
  /// the store (capture) before a save.
  void installFeasibility() const;
  void captureFeasibility();

  // --- per-source records (all keyed by content hash) ---
  void putResponse(uint64_t src_hash, const std::string& kind,
                   std::string body);
  std::optional<std::string> getResponse(uint64_t src_hash,
                                         const std::string& kind) const;

  // --- deep per-procedure records (incremental re-analysis) ---
  // Keyed by (deep content fingerprint, analysis kind); the value is a
  // deep-codec record (store/deep_codec.h).
  void putDeepProc(uint64_t deep_fp, uint8_t kind, std::string bytes);
  std::optional<std::string> getDeepProc(uint64_t deep_fp,
                                         uint8_t kind) const;

  /// Atomic snapshot write (no-op for ephemeral stores). False + err on
  /// I/O failure; the previous snapshot is untouched in that case.
  bool save(std::string& err);

  StoreStats stats() const;
  size_t recordCount() const;
  const std::string& dir() const { return dir_; }
  bool persistent() const { return !dir_.empty(); }
  std::string snapshotPath() const;

  /// PADFA_STORE_DIR, or "" (ephemeral) when unset.
  static std::string defaultDir();

 private:
  std::string quarantineTarget() const;

  mutable std::mutex mu_;
  std::string dir_;
  StoreData data_;
  StoreStats stats_;
};

}  // namespace padfa::store
