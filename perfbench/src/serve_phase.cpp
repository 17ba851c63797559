#include <filesystem>

#include "driver/plan_signature.h"
#include "phases.h"
#include "server/protocol.h"
#include "support/json.h"

using namespace padfa;

namespace perfbench {

namespace {

const char* const kClassSpans[] = {"server.hit", "server.replay",
                                   "server.edit"};
/// Requests between two store flushes (flushes are never timed).
constexpr uint64_t kFlushEvery = 2048;

/// A fresh, unused declaration at the top of `main`'s body: `main` must
/// be re-analyzed while every callee replays from the store.
std::string bodyEdit(const std::string& src, uint64_t n) {
  size_t p = src.find("proc main(");
  size_t brace = p == std::string::npos ? p : src.find('{', p);
  if (brace == std::string::npos)
    throw std::runtime_error("program has no 'proc main(' to edit");
  std::string out = src;
  out.insert(brace + 1, "\n  int qz" + std::to_string(n) + ";");
  return out;
}

JsonValue parseResponse(const std::string& line) {
  JsonValue v;
  std::string err;
  if (!parseJson(line, v, err)) return JsonValue();
  return v;
}

std::string expectedSignature(const std::string& source) {
  DiagEngine diags;
  auto cp = compileSource(source, diags);
  return cp ? planSignature(*cp) : std::string();
}

}  // namespace

ServePhase::ServePhase(
    std::vector<std::pair<std::string, std::string>> programs, uint64_t seed,
    std::string work_dir)
    : rng_(seed), work_dir_(std::move(work_dir)) {
  for (auto& [name, source] : programs)
    programs_.push_back({name, source, source, source, ""});
}

ServePhase::~ServePhase() {
  daemon_.reset();
  std::error_code ec;
  std::filesystem::remove_all(work_dir_, ec);
}

void ServePhase::openStore() {
  daemon_.reset();
  std::filesystem::remove_all(storeDir());
  std::filesystem::create_directories(storeDir());
  server::ServerOptions opts;
  opts.socket_path = storeDir() + "/unused.sock";  // never started
  opts.store_dir = storeDir();
  opts.install_signal_handlers = false;
  opts.flush_every = 1u << 30;  // flushed by flush(), outside timed regions
  daemon_ = std::make_unique<server::MfcDaemon>(opts);
  daemon_->store().open();
  for (Program& p : programs_) {
    p.body = p.current = p.original;
    p.current_sig.clear();
  }
}

void ServePhase::prime() {
  for (Program& p : programs_) {
    server::Request r;
    r.cmd = "report";
    r.source = p.original;
    JsonValue v = parseResponse(daemon_->handleLine(server::encodeRequest(r)));
    p.current_sig = expectedSignature(p.original);
    if (!v.get("ok").asBool() || v.get("signature").asString() != p.current_sig)
      throw std::runtime_error("priming the daemon failed for " + p.name);
  }
  pause();  // the cache contents the first slice resumes with
}

void ServePhase::setup() {
  openStore();
  prime();
}

void ServePhase::flush(Tracer& tracer) {
  Stopwatch sw;
  JsonValue v;
  {
    Tracer::Span s(tracer, "store.save");
    v = parseResponse(daemon_->handleLine("{\"cmd\":\"flush\"}"));
  }
  if (!v.get("ok").asBool())
    throw std::runtime_error("store flush failed: " + v.dump());
  save_ms_.push_back(sw.ms());
  std::string snap = daemon_->store().snapshotPath();
  snapshot_bytes_ = static_cast<double>(std::filesystem::file_size(snap));
  Stopwatch ow;
  {
    Tracer::Span s(tracer, "store.open");
    store::SummaryStore reopened(storeDir());
    if (!reopened.open())
      throw std::runtime_error("reopening the store snapshot failed");
  }
  open_ms_.push_back(ow.ms());
}

void ServePhase::request(Class cls, size_t prog, Tracer& tracer,
                         Tally& tally) {
  Program& p = programs_[prog];
  std::string source;
  if (cls == kResubmit)
    source = p.current;
  else if (cls == kComment)
    source = "// edit " + std::to_string(++edits_) + "\n" + p.body;
  else
    source = bodyEdit(p.original, ++edits_);
  server::Request r;
  r.cmd = "report";
  r.source = source;
  std::string line = server::encodeRequest(r);

  tracer.beginOp();
  Stopwatch sw;
  std::string out;
  {
    Tracer::Span s(tracer, kClassSpans[cls]);
    out = daemon_->handleLine(line);
  }
  double ms = sw.ms();
  timed_s_ += ms / 1e3;
  class_ms_[cls].push_back(ms);
  ++requests_;

  std::string what = p.name + " " + kClassSpans[cls];
  JsonValue v = parseResponse(out);
  if (!v.get("ok").asBool()) {
    tally.record(false, what + ": response not ok: " + out.substr(0, 200));
    return;
  }
  bool cached = v.get("cached").asBool();
  const std::string& sig = v.get("signature").asString();
  if (cls == kResubmit) {
    if (!cached)
      tally.record(false, what + ": resubmit missed the warm cache");
    else
      tally.record(sig == p.current_sig, what + ": signature differs");
    return;
  }
  ++non_hits_;
  auto analyzed =
      static_cast<uint64_t>(v.get("procs_analyzed").asNumber());
  procs_analyzed_ += analyzed;
  procs_replayed_ += static_cast<uint64_t>(v.get("procs_replayed").asNumber());
  // Checked after the timed request, so the reference compile cannot
  // warm the process-wide caches for it.
  std::string expect = expectedSignature(source);
  if (cached || expect.empty() || sig != expect) {
    tally.record(false, what + ": signature differs from compileSource");
    return;
  }
  if (cls == kComment && analyzed != 0) {
    tally.record(false, what + ": comment-only edit re-analyzed " +
                            std::to_string(analyzed) + " procedure(s)");
    return;
  }
  tally.record(true);
  p.current = source;
  p.current_sig = expect;
  if (cls == kBody) p.body = source;
}

void ServePhase::pause() {
  feasibility_ = pb::FeasibilityCache::global().snapshot();
}

void ServePhase::resume() {
  pb::FeasibilityCache& cache = pb::FeasibilityCache::global();
  cache.clear();
  for (const auto& [key, value] : feasibility_) cache.insert(key, value);
}

void ServePhase::begin(Tracer&) {
  status0_ = parseResponse(daemon_->handleLine("{\"cmd\":\"status\"}"));
}

bool ServePhase::step(Tracer& tracer, Tally& tally) {
  if (pos_ == 0) {
    block_.assign(12, kResubmit);
    block_.insert(block_.end(), 5, kComment);
    block_.insert(block_.end(), 3, kBody);
    rng_.shuffle(block_);
  }
  request(block_[pos_], static_cast<size_t>(rng_.below(programs_.size())),
          tracer, tally);
  if (++since_flush_ == kFlushEvery) {
    flush(tracer);
    since_flush_ = 0;
  }
  pos_ = (pos_ + 1) % block_.size();
  return pos_ == 0;
}

void ServePhase::finish(Tracer& tracer) {
  resume();  // the final flush captures the daemon's own cache contents
  flush(tracer);
  JsonValue s1 = parseResponse(daemon_->handleLine("{\"cmd\":\"status\"}"));
  auto delta = [](const JsonValue& a, const JsonValue& b) {
    return static_cast<uint64_t>(b.asNumber() - a.asNumber());
  };
  const JsonValue& s0 = status0_;
  warm_hits_ = delta(s0.get("warm_hits"), s1.get("warm_hits"));
  cold_analyses_ = delta(s0.get("cold_analyses"), s1.get("cold_analyses"));
  const JsonValue& i0 = s0.get("incremental");
  const JsonValue& i1 = s1.get("incremental");
  fp_hits_ = delta(i0.get("fingerprint_hits"), i1.get("fingerprint_hits"));
  fp_misses_ =
      delta(i0.get("fingerprint_misses"), i1.get("fingerprint_misses"));
}

void ServePhase::endToEnd(Metrics& out) const {
  std::vector<double> all;
  for (const auto& v : class_ms_) all.insert(all.end(), v.begin(), v.end());
  out["serve_ms_p50"] = {median(all), "ms"};
  out["serve_ms_p99"] = {percentile(all, 99), "ms"};
  out["serve_per_s"] = {static_cast<double>(requests_) / timed_s_, "1/s"};
}

void ServePhase::perLayer(Metrics& out) const {
  double non_hits = static_cast<double>(non_hits_);
  out["ipa.procs_replayed"] = {static_cast<double>(procs_replayed_) / non_hits,
                               "count"};
  out["ipa.procs_analyzed"] = {static_cast<double>(procs_analyzed_) / non_hits,
                               "count"};
  double probes = static_cast<double>(fp_hits_ + fp_misses_);
  out["ipa.fp_hit_rate"] = {
      probes > 0 ? static_cast<double>(fp_hits_) / probes : 0.0, "ratio"};
  out["server.hit_ms_p50"] = {median(class_ms_[kResubmit]), "ms"};
  out["server.replay_ms_p50"] = {median(class_ms_[kComment]), "ms"};
  out["server.edit_ms_p50"] = {median(class_ms_[kBody]), "ms"};
  out["server.warm_hits"] = {static_cast<double>(warm_hits_), "count"};
  out["server.cold_analyses"] = {static_cast<double>(cold_analyses_), "count"};
  out["store.snapshot_bytes"] = {snapshot_bytes_, "bytes"};
  out["store.save_ms"] = {median(save_ms_), "ms"};
  out["store.open_ms"] = {median(open_ms_), "ms"};
}

}  // namespace perfbench
