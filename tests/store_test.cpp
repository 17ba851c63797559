// Tests for the crash-safe summary store (src/store/).
//
// Three layers:
//   1. snapshot codec — encode/decode round trips bit-identically, and
//      the decoder rejects every golden corruption class (bad magic,
//      future version, CRC flip, truncated tail, trailing garbage,
//      malformed records) without crashing or accepting partial data;
//   2. SummaryStore durability — save() is atomic (temp + rename), a
//      corrupt snapshot at the live name is quarantined on open() and
//      the store recovers cold, and a later save() re-creates a clean
//      snapshot while the quarantined bytes survive for post-mortem;
//   3. the whole-corpus property — for every corpus program, the plan
//      signature persisted through a save/load cycle is bit-identical
//      to a fresh in-process compile.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "corpus/corpus.h"
#include "driver/padfa.h"
#include "driver/plan_signature.h"
#include "store/snapshot.h"
#include "store/summary_store.h"
#include "support/hash.h"

namespace padfa {
namespace {

using store::StoreData;
using store::SummaryStore;

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void writeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// A fresh scratch directory per test, removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/padfa-store-test-XXXXXX";
    char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path = p ? p : "";
  }
  ~TempDir() {
    if (path.empty()) return;
    std::string cmd = "rm -rf '" + path + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
};

StoreData sampleData() {
  StoreData d;
  d.feasibility["sys:a<=b"] = 0;
  d.feasibility["sys:b<=a"] = 1;
  d.feasibility["sys:inexact"] = 2;
  d.responses[{0x1234, "signature"}] = "loop L1 status=Parallel\n";
  d.responses[{0x1234, "report"}] = "loop  depth  plan\n";
  d.deep_procs[{0xabcdef01, 0}] = std::string("\x01", 1) + "base-bytes";
  d.deep_procs[{0xabcdef01, 1}] = std::string("\x01", 1) + "pred-bytes";
  d.deep_procs[{0xabcdef02, 0}] = "other-proc";
  return d;
}

// ---------------------------------------------------------------------
// 1. Snapshot codec.

TEST(Snapshot, RoundTripIsBitIdentical) {
  StoreData d = sampleData();
  std::string bytes = encodeSnapshot(d);
  StoreData back;
  std::string err;
  ASSERT_TRUE(decodeSnapshot(bytes, back, err)) << err;
  EXPECT_EQ(back.feasibility, d.feasibility);
  EXPECT_EQ(back.responses, d.responses);
  EXPECT_EQ(back.deep_procs, d.deep_procs);
  // Maps make encode order canonical: re-encoding reproduces the bytes.
  EXPECT_EQ(encodeSnapshot(back), bytes);
}

TEST(Snapshot, EmptyStoreRoundTrips) {
  StoreData d;
  std::string bytes = encodeSnapshot(d);
  StoreData back;
  std::string err;
  ASSERT_TRUE(decodeSnapshot(bytes, back, err)) << err;
  EXPECT_TRUE(back.empty());
}

// Each golden corruption must fail the WHOLE load: decode returns false
// and leaves `out` empty — no partially-trusted records.
void expectRejected(std::string bytes, const char* what) {
  StoreData out;
  out.feasibility["sentinel"] = 1;  // must be cleared on failure
  std::string err;
  EXPECT_FALSE(decodeSnapshot(bytes, out, err)) << what;
  EXPECT_TRUE(out.empty()) << what << ": partial data accepted";
  EXPECT_FALSE(err.empty()) << what << ": no diagnostic";
}

TEST(Snapshot, GoldenCorruptionsAllRejected) {
  const std::string good = encodeSnapshot(sampleData());

  {  // bad magic
    std::string b = good;
    b[0] = 'X';
    expectRejected(b, "bad magic");
  }
  {  // future format version (layout unknown => corruption)
    std::string b = good;
    b[8] = static_cast<char>(store::kFormatVersion + 1);
    expectRejected(b, "future version");
  }
  {  // version 0
    std::string b = good;
    b[8] = 0;
    expectRejected(b, "version zero");
  }
  {  // v1 snapshot (pre-deep-proc layout): one-time cold start
    std::string b = good;
    b[8] = 1;
    expectRejected(b, "stale v1 version");
  }
  {  // v2 snapshot (per-procedure plan records): one-time cold start
    std::string b = good;
    b[8] = 2;
    expectRejected(b, "stale v2 version");
  }
  {  // CRC flip: flip one payload bit of the first record
    std::string b = good;
    b[12 + 5] ^= 0x40;
    expectRejected(b, "crc mismatch");
  }
  {  // truncated tail: END record cut off
    std::string b = good.substr(0, good.size() - 4);
    expectRejected(b, "truncated tail");
  }
  {  // truncated mid-record (torn write)
    std::string b = good.substr(0, good.size() / 2);
    expectRejected(b, "torn write");
  }
  {  // header only
    expectRejected(good.substr(0, 12), "header only");
    expectRejected(good.substr(0, 7), "partial magic");
    expectRejected("", "empty file");
  }
  {  // trailing garbage after END
    std::string b = good + "junk";
    expectRejected(b, "trailing garbage");
  }
  {  // unknown record type before END
    std::string rec;
    rec.push_back(0x7f);
    rec += std::string(4, '\0');  // len = 0
    uint32_t crc = crc32(rec.data(), rec.size());
    for (int i = 0; i < 4; ++i)
      rec.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
    std::string b = good.substr(0, 12) + rec + good.substr(12);
    expectRejected(b, "unknown record type");
  }
  {  // declared length exceeding the file
    std::string b = good.substr(0, 12);
    b.push_back(static_cast<char>(store::kFeasibilityRecord));
    b += "\xff\xff\xff\x7f";  // len = 0x7fffffff
    expectRejected(b, "oversized length");
  }

  // Deep-proc record corruptions, spliced as hand-built CRC'd records
  // right after the header (the decoder processes them first).
  auto spliceRecord = [&](const std::string& payload) {
    std::string rec;
    rec.push_back(static_cast<char>(store::kDeepProcRecord));
    for (int i = 0; i < 4; ++i)
      rec.push_back(static_cast<char>((payload.size() >> (8 * i)) & 0xff));
    uint32_t crc = crc32(rec);
    crc = crc32(payload.data(), payload.size(), crc);
    rec += payload;
    for (int i = 0; i < 4; ++i)
      rec.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
    return good.substr(0, 12) + rec + good.substr(12);
  };
  {  // payload shorter than the fixed fp+kind prefix
    expectRejected(spliceRecord(std::string(8, '\x11')), "short deep-proc");
  }
  {  // fp+kind present but zero codec bytes
    std::string payload(8, '\x22');
    payload.push_back('\x00');  // kind = base, no value
    expectRejected(spliceRecord(payload), "empty deep-proc value");
  }
  {  // duplicate (fp, kind) key: re-splice an existing record verbatim
    std::string payload;
    uint64_t fp = 0xabcdef01;
    for (int i = 0; i < 8; ++i)
      payload.push_back(static_cast<char>((fp >> (8 * i)) & 0xff));
    payload.push_back('\x00');  // kind = base
    payload += std::string("\x01", 1) + "base-bytes";
    expectRejected(spliceRecord(payload), "duplicate deep-proc key");
  }
}

TEST(Snapshot, DecoderNeverCrashesOnRandomMutations) {
  // Deterministic xorshift fuzz of a valid snapshot: truncations and
  // bit flips. The decoder must either reject or produce data that
  // re-encodes to the (possibly mutated) canonical form — never crash.
  const std::string good = encodeSnapshot(sampleData());
  uint64_t s = 0x9e3779b97f4a7c15ull;
  auto next = [&]() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  for (int iter = 0; iter < 2000; ++iter) {
    std::string b = good;
    int kind = static_cast<int>(next() % 3);
    if (kind == 0) {
      b.resize(next() % (b.size() + 1));  // truncate
    } else if (kind == 1) {
      b[next() % b.size()] ^= static_cast<char>(1u << (next() % 8));
    } else {
      size_t flips = 1 + next() % 8;
      for (size_t f = 0; f < flips; ++f)
        b[next() % b.size()] ^= static_cast<char>(1u << (next() % 8));
    }
    StoreData out;
    std::string err;
    if (decodeSnapshot(b, out, err)) {
      // A mutation that still decodes must be content-preserving
      // modulo the canonical re-encoding (e.g. flips inside ignored
      // padding do not exist in this format, so this almost always
      // means the mutation was undone by a second flip).
      EXPECT_EQ(encodeSnapshot(out), good);
    }
  }
}

// ---------------------------------------------------------------------
// 2. SummaryStore durability + quarantine.

TEST(SummaryStore, EphemeralStoreIsANoOp) {
  SummaryStore store("");
  EXPECT_FALSE(store.persistent());
  EXPECT_FALSE(store.open());
  store.putResponse(1, "report", "x");
  std::string err;
  EXPECT_TRUE(store.save(err)) << err;  // no-op, no file
  EXPECT_EQ(store.stats().saves, 0u);
}

TEST(SummaryStore, SaveThenLoadRestoresRecords) {
  TempDir dir;
  {
    SummaryStore store(dir.path);
    EXPECT_FALSE(store.open());  // cold: no snapshot yet
    store.putResponse(42, "signature", "sig");
    store.putResponse(42, "report", "table");
    std::string err;
    ASSERT_TRUE(store.save(err)) << err;
  }
  SummaryStore store(dir.path);
  EXPECT_TRUE(store.open());
  EXPECT_EQ(store.getResponse(42, "signature").value_or(""), "sig");
  EXPECT_EQ(store.getResponse(42, "report").value_or(""), "table");
  EXPECT_FALSE(store.getResponse(43, "report").has_value());
  EXPECT_FALSE(store.getResponse(43, "signature").has_value());
  EXPECT_EQ(store.stats().loaded_responses, 2u);
}

TEST(SummaryStore, CorruptSnapshotIsQuarantinedAndStoreStartsCold) {
  TempDir dir;
  std::string snap;
  {
    SummaryStore store(dir.path);
    store.putResponse(7, "report", "r");
    std::string err;
    ASSERT_TRUE(store.save(err)) << err;
    snap = store.snapshotPath();
  }
  // Corrupt the live snapshot: torn write (truncate to half).
  std::string bytes = readFile(snap);
  ASSERT_FALSE(bytes.empty());
  writeFile(snap, bytes.substr(0, bytes.size() / 2));

  SummaryStore store(dir.path);
  EXPECT_FALSE(store.open());
  store::StoreStats st = store.stats();
  EXPECT_TRUE(st.load_attempted);
  EXPECT_FALSE(st.loaded);
  EXPECT_EQ(st.quarantined, 1u);
  EXPECT_FALSE(st.load_error.empty());
  EXPECT_EQ(store.recordCount(), 0u) << "partial data served after quarantine";

  // The corrupt bytes moved aside; the live name is gone.
  struct stat s;
  EXPECT_NE(::stat(snap.c_str(), &s), 0);
  EXPECT_EQ(::stat((snap + ".quarantine-1").c_str(), &s), 0);

  // Recovery: the store works cold and a save re-creates a clean file.
  store.putResponse(8, "report", "fresh");
  std::string err;
  ASSERT_TRUE(store.save(err)) << err;
  SummaryStore after(dir.path);
  EXPECT_TRUE(after.open());
  EXPECT_EQ(after.getResponse(8, "report").value_or(""), "fresh");
  // The quarantined bytes survive for post-mortem.
  EXPECT_EQ(::stat((snap + ".quarantine-1").c_str(), &s), 0);
}

TEST(SummaryStore, EveryGoldenCorruptionTriggersQuarantine) {
  const std::string good = store::encodeSnapshot(sampleData());
  struct Case {
    const char* name;
    std::string bytes;
  };
  std::vector<Case> cases;
  {
    std::string b = good;
    b[0] = 'Z';
    cases.push_back({"bad-magic", b});
  }
  {
    std::string b = good;
    b[8] = static_cast<char>(store::kFormatVersion + 3);
    cases.push_back({"future-version", b});
  }
  {
    std::string b = good;
    b[b.size() / 2] ^= 0x01;
    cases.push_back({"bit-flip", b});
  }
  cases.push_back({"truncated", good.substr(0, good.size() - 1)});
  cases.push_back({"garbage", std::string("not a snapshot at all")});

  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    TempDir dir;
    SummaryStore probe(dir.path);
    writeFile(probe.snapshotPath(), cases[i].bytes);
    SummaryStore store(dir.path);
    EXPECT_FALSE(store.open());
    EXPECT_EQ(store.stats().quarantined, 1u);
    EXPECT_EQ(store.recordCount(), 0u);
  }
}

TEST(SummaryStore, RepeatedCorruptionUsesDistinctQuarantineNames) {
  TempDir dir;
  SummaryStore probe(dir.path);
  const std::string snap = probe.snapshotPath();
  for (int round = 1; round <= 3; ++round) {
    writeFile(snap, "corrupt #" + std::to_string(round));
    SummaryStore store(dir.path);
    EXPECT_FALSE(store.open());
  }
  struct stat s;
  EXPECT_EQ(::stat((snap + ".quarantine-1").c_str(), &s), 0);
  EXPECT_EQ(::stat((snap + ".quarantine-2").c_str(), &s), 0);
  EXPECT_EQ(::stat((snap + ".quarantine-3").c_str(), &s), 0);
}

TEST(SummaryStore, SaveLeavesNoTempFilesBehind) {
  TempDir dir;
  SummaryStore store(dir.path);
  store.putResponse(1, "report", "x");
  std::string err;
  ASSERT_TRUE(store.save(err)) << err;
  ASSERT_TRUE(store.save(err)) << err;  // overwrite path exercised too
  // Directory holds exactly the live snapshot.
  std::string find = "ls -A '" + dir.path + "'";
  FILE* p = ::popen(find.c_str(), "r");
  ASSERT_NE(p, nullptr);
  std::string listing;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), p)) listing += buf;
  ::pclose(p);
  EXPECT_EQ(listing, "summary.snap\n");
}

// ---------------------------------------------------------------------
// 3. Whole-corpus persistence property: plan signatures that pass
// through a save/load cycle come back bit-identical to a cold compile.

TEST(StoreCorpusProperty, PersistedPlansAreBitIdenticalAcrossReload) {
  TempDir dir;
  std::vector<std::pair<uint64_t, std::string>> expected;  // hash, signature
  {
    SummaryStore store(dir.path);
    store.open();
    for (const CorpusEntry& entry : corpus()) {
      SCOPED_TRACE(entry.name);
      std::string source = instantiate(entry);
      DiagEngine diags;
      auto cp = compileSource(source, diags);
      ASSERT_TRUE(cp) << diags.dump();
      uint64_t hash = contentHash64(source);
      store.putResponse(hash, "signature", planSignature(*cp));
      expected.emplace_back(hash, planSignature(*cp));
    }
    std::string err;
    ASSERT_TRUE(store.save(err)) << err;
  }

  // Reload in a fresh store object (fresh process stand-in) and compare
  // the reloaded signature against the in-process compile, for every
  // corpus program.
  SummaryStore store(dir.path);
  ASSERT_TRUE(store.open());
  for (const auto& [hash, signature] : expected) {
    auto reloaded = store.getResponse(hash, "signature");
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_EQ(*reloaded, signature);
  }
}

}  // namespace
}  // namespace padfa
