#include "store/snapshot.h"

#include <cstring>

#include "support/hash.h"

namespace padfa::store {

namespace {

void putU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

void putU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

void appendRecord(std::string& out, uint8_t type, const std::string& payload) {
  std::string head;
  head += static_cast<char>(type);
  putU32(head, static_cast<uint32_t>(payload.size()));
  uint32_t crc = crc32(head);
  crc = crc32(payload.data(), payload.size(), crc);
  out += head;
  out += payload;
  putU32(out, crc);
}

/// Bounds-checked little-endian cursor over the snapshot bytes.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : p_(bytes.data()), n_(bytes.size()) {}

  size_t remaining() const { return n_ - off_; }
  size_t offset() const { return off_; }

  bool bytes(size_t len, std::string_view& out) {
    if (remaining() < len) return false;
    out = std::string_view(p_ + off_, len);
    off_ += len;
    return true;
  }
  bool u8(uint8_t& out) {
    if (remaining() < 1) return false;
    out = static_cast<uint8_t>(p_[off_++]);
    return true;
  }
  bool u32(uint32_t& out) {
    std::string_view b;
    if (!bytes(4, b)) return false;
    out = 0;
    for (int i = 3; i >= 0; --i)
      out = (out << 8) | static_cast<uint8_t>(b[static_cast<size_t>(i)]);
    return true;
  }
  bool u64(uint64_t& out) {
    std::string_view b;
    if (!bytes(8, b)) return false;
    out = 0;
    for (int i = 7; i >= 0; --i)
      out = (out << 8) | static_cast<uint8_t>(b[static_cast<size_t>(i)]);
    return true;
  }

 private:
  const char* p_;
  size_t n_;
  size_t off_ = 0;
};

bool failDecode(StoreData& out, std::string& err, const std::string& msg) {
  out.clear();
  err = msg;
  return false;
}

}  // namespace

std::string encodeSnapshot(const StoreData& data) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  putU32(out, kFormatVersion);
  for (const auto& [key, value] : data.feasibility) {
    std::string payload;
    payload += static_cast<char>(value);
    payload += key;
    appendRecord(out, kFeasibilityRecord, payload);
  }
  for (const auto& [key, body] : data.responses) {
    std::string payload;
    putU64(payload, key.first);
    payload += static_cast<char>(key.second.size());
    payload += key.second;
    payload += body;
    appendRecord(out, kResponseRecord, payload);
  }
  for (const auto& [key, body] : data.deep_procs) {
    std::string payload;
    putU64(payload, key.first);
    payload += static_cast<char>(key.second);
    payload += body;
    appendRecord(out, kDeepProcRecord, payload);
  }
  appendRecord(out, kEndRecord, "");
  return out;
}

bool decodeSnapshot(std::string_view bytes, StoreData& out, std::string& err) {
  out.clear();
  err.clear();
  Cursor cur(bytes);
  std::string_view magic;
  if (!cur.bytes(sizeof(kMagic), magic) ||
      std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0)
    return failDecode(out, err, "bad magic");
  uint32_t version = 0;
  if (!cur.u32(version)) return failDecode(out, err, "truncated header");
  if (version != kFormatVersion)
    return failDecode(out, err,
                      "unsupported format version " + std::to_string(version) +
                          " (this build reads " +
                          std::to_string(kFormatVersion) + ")");

  bool saw_end = false;
  while (!saw_end) {
    size_t rec_off = cur.offset();
    uint8_t type = 0;
    uint32_t len = 0;
    if (!cur.u8(type) || !cur.u32(len))
      return failDecode(out, err,
                        "truncated record header at offset " +
                            std::to_string(rec_off));
    if (len > cur.remaining())
      return failDecode(out, err,
                        "truncated record payload at offset " +
                            std::to_string(rec_off));
    std::string_view payload;
    cur.bytes(len, payload);
    uint32_t stored_crc = 0;
    if (!cur.u32(stored_crc))
      return failDecode(out, err,
                        "truncated record crc at offset " +
                            std::to_string(rec_off));
    std::string head;
    head += static_cast<char>(type);
    putU32(head, len);
    uint32_t crc = crc32(head);
    crc = crc32(payload.data(), payload.size(), crc);
    if (crc != stored_crc)
      return failDecode(out, err,
                        "crc mismatch at offset " + std::to_string(rec_off));

    Cursor body(payload);
    switch (type) {
      case kFeasibilityRecord: {
        uint8_t value = 0;
        if (!body.u8(value))
          return failDecode(out, err, "short feasibility record");
        if (value > 2)
          return failDecode(out, err, "feasibility value out of range");
        std::string_view key;
        body.bytes(body.remaining(), key);
        if (key.empty())
          return failDecode(out, err, "empty feasibility key");
        if (!out.feasibility.emplace(std::string(key), value).second)
          return failDecode(out, err, "duplicate feasibility key");
        break;
      }
      case kResponseRecord: {
        uint64_t hash = 0;
        uint8_t kind_len = 0;
        if (!body.u64(hash) || !body.u8(kind_len))
          return failDecode(out, err, "short response record");
        std::string_view kind;
        if (!body.bytes(kind_len, kind) || kind.empty())
          return failDecode(out, err, "bad response kind");
        std::string_view value;
        body.bytes(body.remaining(), value);
        auto key = std::make_pair(hash, std::string(kind));
        if (!out.responses.emplace(std::move(key), std::string(value)).second)
          return failDecode(out, err, "duplicate response record");
        break;
      }
      case kDeepProcRecord: {
        uint64_t fp = 0;
        uint8_t kind = 0;
        if (!body.u64(fp) || !body.u8(kind))
          return failDecode(out, err, "short deep-proc record");
        std::string_view value;
        body.bytes(body.remaining(), value);
        if (value.empty())
          return failDecode(out, err, "empty deep-proc record");
        auto key = std::make_pair(fp, kind);
        if (!out.deep_procs.emplace(key, std::string(value)).second)
          return failDecode(out, err, "duplicate deep-proc record");
        break;
      }
      case kEndRecord:
        if (len != 0) return failDecode(out, err, "non-empty END record");
        saw_end = true;
        break;
      default:
        return failDecode(out, err,
                          "unknown record type " + std::to_string(type) +
                              " at offset " + std::to_string(rec_off));
    }
  }
  if (cur.remaining() != 0)
    return failDecode(out, err, "trailing bytes after END record");
  return true;
}

}  // namespace padfa::store
