// The on-disk snapshot format of the persistent summary store.
//
// Layout (all integers little-endian):
//
//   +0   magic   "PADFASNP"                               8 bytes
//   +8   version u32  (kFormatVersion)                    4 bytes
//   then a sequence of records:
//        type    u8
//        len     u32   payload length
//        payload len bytes
//        crc     u32   crc32 over type+len+payload bytes
//   terminated by an END record (type 0xEE, empty payload) which must
//   be the last bytes of the file.
//
// Record types:
//   0x01 Feasibility  payload = value u8 ++ canonical system key
//   0x03 Response     payload = src_hash u64 ++ kind_len u8 ++ kind
//                               ++ response bytes
//   0x04 DeepProc     payload = deep_fp u64 ++ kind u8
//                               ++ deep-codec record bytes
//                     (kind = analysis kind, store/deep_codec.h)
//   0xEE End          payload empty
//
// decodeSnapshot() is the trust boundary between disk bytes and the
// serving path: it validates the magic, rejects any version other than
// kFormatVersion (a FUTURE version is corruption from this build's point
// of view — the layout is unknown), checks every record's CRC, and
// refuses truncated records, duplicate keys, missing END, and trailing
// bytes after END. Any violation fails the whole load — the store layer
// then quarantines the file and starts cold. A corrupt snapshot can
// cost time (re-analysis), never correctness (a wrong plan).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace padfa::store {

inline constexpr char kMagic[8] = {'P', 'A', 'D', 'F', 'A', 'S', 'N', 'P'};
/// v2 added the DeepProc record (incremental re-analysis); v3 dropped the
/// per-procedure ProcPlan record (0x02) for one `signature` Response per
/// source. An older snapshot is quarantined on load — an acceptable
/// one-time cold start.
inline constexpr uint32_t kFormatVersion = 3;

enum RecordType : uint8_t {
  kFeasibilityRecord = 0x01,
  kResponseRecord = 0x03,
  kDeepProcRecord = 0x04,
  kEndRecord = 0xEE,
};

/// The store's in-memory contents. Maps keep encode order deterministic:
/// encode(decode(bytes)) == bytes for any snapshot this build wrote.
struct StoreData {
  /// Canonical Presburger system key -> pb::Feasibility (as raw u8).
  std::map<std::string, uint8_t> feasibility;
  /// (source content hash, kind) -> stored response payload. Kinds in
  /// use: "signature" (the whole plan signature, see
  /// driver/plan_signature.h), "report" (rendered table), "emit"
  /// (transformed source).
  std::map<std::pair<uint64_t, std::string>, std::string> responses;
  /// (deep content fingerprint, analysis kind) -> deep-codec record bytes
  /// (one procedure's serialized RegionSummary + LoopPlans; see
  /// store/deep_codec.h). Keyed by the *deep* fingerprint — the hash of
  /// the procedure's canonical text plus its full callee closure — so a
  /// record can never be replayed against a program where any transitive
  /// callee changed.
  std::map<std::pair<uint64_t, uint8_t>, std::string> deep_procs;

  bool empty() const {
    return feasibility.empty() && responses.empty() && deep_procs.empty();
  }
  size_t recordCount() const {
    return feasibility.size() + responses.size() + deep_procs.size();
  }
  void clear() {
    feasibility.clear();
    responses.clear();
    deep_procs.clear();
  }
};

/// Serialize `data` to snapshot bytes (header + records + END).
std::string encodeSnapshot(const StoreData& data);

/// Parse snapshot bytes. On success fills `out` and returns true; on any
/// structural violation clears `out`, fills `err`, and returns false.
/// Never throws, never reads out of bounds, never accepts a record whose
/// CRC does not match.
bool decodeSnapshot(std::string_view bytes, StoreData& out, std::string& err);

}  // namespace padfa::store
