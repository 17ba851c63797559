#include "store/summary_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "presburger/feasibility_cache.h"

namespace padfa::store {

namespace {

constexpr const char* kSnapshotName = "summary.snap";

bool readWholeFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  if (in.bad()) return false;
  out = ss.str();
  return true;
}

}  // namespace

SummaryStore::SummaryStore(std::string dir) : dir_(std::move(dir)) {}

std::string SummaryStore::defaultDir() {
  const char* v = std::getenv("PADFA_STORE_DIR");
  return v ? std::string(v) : std::string();
}

std::string SummaryStore::snapshotPath() const {
  return dir_.empty() ? std::string() : dir_ + "/" + kSnapshotName;
}

std::string SummaryStore::quarantineTarget() const {
  // First free numbered slot; bounded so a pathological directory cannot
  // loop forever (slot 9999 is then overwritten — quarantine is a
  // best-effort post-mortem aid, not an archive).
  for (int k = 1; k < 10000; ++k) {
    std::string cand =
        snapshotPath() + ".quarantine-" + std::to_string(k);
    struct stat st;
    if (::stat(cand.c_str(), &st) != 0) return cand;
  }
  return snapshotPath() + ".quarantine-9999";
}

bool SummaryStore::open() {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir_.empty()) return false;
  ::mkdir(dir_.c_str(), 0777);  // EEXIST is fine; real failures surface below
  stats_.load_attempted = true;
  std::string path = snapshotPath();
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return false;  // cold start, no file
  std::string bytes;
  std::string err;
  if (!readWholeFile(path, bytes)) {
    err = "unreadable snapshot: " + std::string(std::strerror(errno));
  } else if (decodeSnapshot(bytes, data_, err)) {
    stats_.loaded = true;
    stats_.loaded_feasibility = data_.feasibility.size();
    stats_.loaded_responses = data_.responses.size();
    stats_.loaded_deep = data_.deep_procs.size();
    return true;
  }
  // Quarantine: move the corrupt snapshot aside so the next save starts
  // from a clean name and the bad bytes stay available for post-mortem.
  std::string target = quarantineTarget();
  if (::rename(path.c_str(), target.c_str()) != 0) {
    // Can't even rename (e.g. read-only dir): unlink as a fallback; if
    // that also fails the next save's rename will still replace it.
    ::unlink(path.c_str());
    target = "<unlinked>";
  }
  ++stats_.quarantined;
  stats_.load_error = err;
  data_.clear();
  std::fprintf(stderr,
               "padfa-store: quarantined corrupt snapshot %s -> %s (%s); "
               "starting cold\n",
               path.c_str(), target.c_str(), err.c_str());
  return false;
}

void SummaryStore::installFeasibility() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto& cache = pb::FeasibilityCache::global();
  for (const auto& [key, value] : data_.feasibility)
    cache.insert(key, static_cast<pb::Feasibility>(value));
}

void SummaryStore::captureFeasibility() {
  auto entries = pb::FeasibilityCache::global().snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, value] : entries)
    data_.feasibility[key] = static_cast<uint8_t>(value);
}

void SummaryStore::putResponse(uint64_t src_hash, const std::string& kind,
                               std::string body) {
  std::lock_guard<std::mutex> lock(mu_);
  data_.responses[{src_hash, kind}] = std::move(body);
}

std::optional<std::string> SummaryStore::getResponse(
    uint64_t src_hash, const std::string& kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = data_.responses.find({src_hash, kind});
  if (it == data_.responses.end()) return std::nullopt;
  return it->second;
}

void SummaryStore::putDeepProc(uint64_t deep_fp, uint8_t kind,
                               std::string bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  data_.deep_procs[{deep_fp, kind}] = std::move(bytes);
}

std::optional<std::string> SummaryStore::getDeepProc(uint64_t deep_fp,
                                                     uint8_t kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = data_.deep_procs.find({deep_fp, kind});
  if (it == data_.deep_procs.end()) return std::nullopt;
  return it->second;
}

bool SummaryStore::save(std::string& err) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir_.empty()) return true;
  std::string bytes = encodeSnapshot(data_);
  std::string tmp = snapshotPath() + ".tmp." +
                    std::to_string(static_cast<long>(::getpid()));
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (fd < 0) {
    err = "open " + tmp + ": " + std::strerror(errno);
    return false;
  }
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      err = "write " + tmp + ": " + std::strerror(errno);
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    err = "fsync " + tmp + ": " + std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), snapshotPath().c_str()) != 0) {
    err = "rename " + tmp + ": " + std::strerror(errno);
    ::unlink(tmp.c_str());
    return false;
  }
  // Make the rename itself durable: fsync the containing directory.
  int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  ++stats_.saves;
  return true;
}

StoreStats SummaryStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t SummaryStore::recordCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return data_.recordCount();
}

}  // namespace padfa::store
