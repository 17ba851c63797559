#include "server/server.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "codegen/parallel_emit.h"
#include "corpus/corpus.h"
#include "driver/padfa.h"
#include "driver/plan_signature.h"
#include "ipa/incremental.h"
#include "support/hash.h"
#include "support/perf_stats.h"

namespace padfa::server {

namespace {

double monotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t envU64(const char* name, uint64_t dflt) {
  const char* v = std::getenv(name);
  if (!v || !*v) return dflt;
  char* end = nullptr;
  unsigned long long n = std::strtoull(v, &end, 10);
  return (end && *end == '\0') ? n : dflt;
}

double envDouble(const char* name, double dflt) {
  const char* v = std::getenv(name);
  if (!v || !*v) return dflt;
  char* end = nullptr;
  double n = std::strtod(v, &end);
  return (end && *end == '\0') ? n : dflt;
}

// Self-pipe write end for the signal handler. Only one daemon instance
// installs handlers per process (mfcd / mfc serve); in-process test
// daemons run with install_signal_handlers=false.
std::atomic<int> g_signal_fd{-1};

void onTerminateSignal(int) {
  int fd = g_signal_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    char b = 's';
    [[maybe_unused]] ssize_t n = ::write(fd, &b, 1);
  }
}

bool sendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

void setIoTimeouts(int fd, int seconds) {
  struct timeval tv;
  tv.tv_sec = seconds;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}


}  // namespace

std::string defaultSocketPath() {
  const char* v = std::getenv("PADFA_MFCD_SOCKET");
  if (v && *v) return v;
  return "/tmp/mfcd-" + std::to_string(static_cast<long>(::getuid())) +
         ".sock";
}

ServerOptions ServerOptions::fromEnv() {
  ServerOptions o;
  o.socket_path = defaultSocketPath();
  o.store_dir = store::SummaryStore::defaultDir();
  o.workers = static_cast<unsigned>(envU64("PADFA_MFCD_WORKERS", 2));
  if (o.workers == 0) o.workers = 1;
  o.queue_limit = envU64("PADFA_MFCD_QUEUE", 64);
  o.request_deadline_ms = envDouble("PADFA_MFCD_DEADLINE_MS", 0);
  o.flush_every =
      static_cast<unsigned>(envU64("PADFA_MFCD_FLUSH_EVERY", 4));
  if (o.flush_every == 0) o.flush_every = 1;
  return o;
}

MfcDaemon::MfcDaemon(ServerOptions opts) : opts_(std::move(opts)) {
  store_ = std::make_unique<store::SummaryStore>(opts_.store_dir);
}

MfcDaemon::~MfcDaemon() {
  if (started_) {
    requestStop();
    wait();
  }
}

bool MfcDaemon::start(std::string& err) {
  if (opts_.socket_path.empty()) {
    err = "no socket path configured";
    return false;
  }
  store_->open();  // quarantine-on-corruption happens here
  store_->installFeasibility();

  if (::pipe(stop_pipe_) != 0) {
    err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
    err = "socket path too long: " + opts_.socket_path;
    return false;
  }
  std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  // Refuse to steal a live daemon's socket; reclaim a stale one (a
  // previous SIGKILL leaves the inode behind).
  int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe >= 0) {
    if (::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      ::close(probe);
      err = "another mfcd is already serving " + opts_.socket_path;
      return false;
    }
    ::close(probe);
  }
  ::unlink(opts_.socket_path.c_str());

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    err = "bind " + opts_.socket_path + ": " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 128) != 0) {
    err = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  if (opts_.install_signal_handlers) {
    g_signal_fd.store(stop_pipe_[1], std::memory_order_relaxed);
    struct sigaction sa{};
    sa.sa_handler = onTerminateSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);
  }

  started_at_ = monotonicSeconds();
  started_ = true;
  stopping_ = false;
  accept_thread_ = std::thread([this] { acceptLoop(); });
  for (unsigned i = 0; i < opts_.workers; ++i)
    workers_.emplace_back([this] { workerLoop(); });
  return true;
}

void MfcDaemon::requestStop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  if (stop_pipe_[1] >= 0) {
    char b = 'q';
    [[maybe_unused]] ssize_t n = ::write(stop_pipe_[1], &b, 1);
  }
  cv_.notify_all();
}

int MfcDaemon::wait() {
  if (!started_) return 0;
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;  // accept loop may have exited on its own
  }
  cv_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(opts_.socket_path.c_str());
  if (opts_.install_signal_handlers)
    g_signal_fd.store(-1, std::memory_order_relaxed);
  for (int& fd : stop_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  std::string err;
  if (!flushStore(err))
    std::fprintf(stderr, "mfcd: final store flush failed: %s\n", err.c_str());
  started_ = false;
  return 0;
}

int MfcDaemon::run(std::string& err) {
  if (!start(err)) return 1;
  std::fprintf(stderr,
               "mfcd: serving on %s (store: %s, %u worker(s), queue %zu)\n",
               opts_.socket_path.c_str(),
               store_->persistent() ? store_->dir().c_str() : "<ephemeral>",
               opts_.workers, opts_.queue_limit);
  return wait();
}

void MfcDaemon::acceptLoop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // drain requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_ || queue_.size() >= opts_.queue_limit) {
        shed = true;
      } else {
        queue_.push_back(fd);
      }
    }
    if (shed) {
      // Load shedding: an explicit, immediate answer instead of an
      // unbounded queue. The client decides whether to retry or fall
      // back to in-process analysis.
      stats_.shed.fetch_add(1, std::memory_order_relaxed);
      setIoTimeouts(fd, 5);
      sendAll(fd, errorResponse("overloaded", "request queue full").dump() +
                      "\n");
      ::close(fd);
    } else {
      cv_.notify_one();
    }
  }
}

void MfcDaemon::workerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;  // drained
        continue;
      }
      fd = queue_.front();
      queue_.pop_front();
    }
    serveConnection(fd);
  }
}

void MfcDaemon::serveConnection(int fd) {
  setIoTimeouts(fd, 60);
  std::string line;
  bool too_big = false;
  char buf[4096];
  while (line.find('\n') == std::string::npos) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // EOF, timeout, or error — handle what we have
    line.append(buf, static_cast<size_t>(n));
    if (line.size() > opts_.max_request_bytes) {
      too_big = true;
      break;
    }
  }
  std::string response;
  if (too_big) {
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    response = errorResponse("request-too-large",
                             "request exceeds " +
                                 std::to_string(opts_.max_request_bytes) +
                                 " bytes")
                   .dump();
  } else {
    size_t nl = line.find('\n');
    if (nl == std::string::npos) {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      response =
          errorResponse("parse-error", "connection closed mid-request")
              .dump();
    } else {
      response = handleLine(line.substr(0, nl));
    }
  }
  response += '\n';
  sendAll(fd, response);
  ::close(fd);
}

std::string MfcDaemon::handleLine(const std::string& line) {
  Request req;
  std::string err;
  if (!parseRequest(line, req, err)) {
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    return errorResponse("parse-error", err).dump();
  }
  JsonValue resp;
  try {
    resp = handleRequest(req);
  } catch (const std::exception& e) {
    // A request must never take the daemon down; the failure is the
    // client's answer, not the process's.
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    resp = errorResponse("internal", e.what());
  }
  if (resp.get("ok").asBool())
    stats_.served.fetch_add(1, std::memory_order_relaxed);
  else
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
  return resp.dump();
}

JsonValue MfcDaemon::handleRequest(const Request& r) {
  if (r.cmd == "ping") {
    JsonValue v = JsonValue::object();
    v.set("ok", JsonValue::of(true));
    v.set("pong", JsonValue::of(true));
    v.set("pid", JsonValue::of(int64_t{::getpid()}));
    return v;
  }
  if (r.cmd == "status") return statusJson();
  if (r.cmd == "flush") {
    std::string err;
    if (!flushStore(err)) return errorResponse("internal", err);
    JsonValue v = JsonValue::object();
    v.set("ok", JsonValue::of(true));
    v.set("saved", JsonValue::of(store_->persistent()));
    return v;
  }
  if (r.cmd == "shutdown") {
    requestStop();
    JsonValue v = JsonValue::object();
    v.set("ok", JsonValue::of(true));
    v.set("stopping", JsonValue::of(true));
    return v;
  }
  if (r.cmd == "sleep") {
    if (!opts_.enable_test_commands)
      return errorResponse("bad-request", "unknown command 'sleep'");
    std::this_thread::sleep_for(std::chrono::milliseconds(r.sleep_ms));
    JsonValue v = JsonValue::object();
    v.set("ok", JsonValue::of(true));
    return v;
  }
  if (r.cmd == "report" || r.cmd == "emit" || r.cmd == "analyze")
    return handleAnalysis(r);
  return errorResponse("bad-request", "unknown command '" + r.cmd + "'");
}

JsonValue MfcDaemon::handleAnalysis(const Request& r) {
  std::string source;
  if (!r.source.empty()) {
    source = r.source;
  } else if (r.spec.rfind("corpus:", 0) == 0) {
    const CorpusEntry* e = corpusEntry(r.spec.substr(7));
    if (!e)
      return errorResponse("bad-request",
                           "unknown corpus program '" + r.spec.substr(7) +
                               "'");
    source = instantiate(*e);
  } else if (!r.spec.empty()) {
    // The daemon deliberately reads no client paths: clients send the
    // bytes (content-hash keying depends on seeing the exact source).
    return errorResponse("bad-request",
                         "spec must be corpus:NAME; send file contents "
                         "inline as \"source\"");
  } else {
    return errorResponse("bad-request", "missing \"source\" or \"spec\"");
  }

  uint64_t hash = contentHash64(source);
  BudgetLimits limits = BudgetLimits::defaults();
  if (r.deadline_ms > 0)
    limits.deadline_seconds = r.deadline_ms / 1000.0;
  else if (opts_.request_deadline_ms > 0)
    limits.deadline_seconds = opts_.request_deadline_ms / 1000.0;
  if (r.fm_steps > 0) limits.max_fm_steps = r.fm_steps;
  bool governed = BudgetLimits::fromEnv(limits).governed();
  bool cacheable = !governed && cachesEnabled();

  JsonValue v = JsonValue::object();
  v.set("ok", JsonValue::of(true));
  v.set("cmd", JsonValue::of(r.cmd));
  v.set("source_hash", JsonValue::of(hashHex(hash)));

  // Warm path: serve from the persistent store when every needed record
  // is present. Records exist only for ungoverned, undegraded runs of
  // this exact source under this store-format version.
  if (cacheable) {
    auto sig = store_->getResponse(hash, "signature");
    if (sig) {
      std::optional<std::string> payload = std::make_optional(std::string());
      if (r.cmd != "analyze") payload = store_->getResponse(hash, r.cmd);
      if (payload) {
        stats_.warm_hits.fetch_add(1, std::memory_order_relaxed);
        v.set("cached", JsonValue::of(true));
        v.set("degraded", JsonValue::of(int64_t{0}));
        v.set("signature", JsonValue::of(*sig));
        if (r.cmd != "analyze") v.set(r.cmd, JsonValue::of(*payload));
        return v;
      }
    }
  }

  // Cold path — made as warm as possible: on a whole-source warm miss
  // the incremental engine still replays every procedure whose deep
  // fingerprint (canonical text + callee closure) is in the store, so an
  // edit re-analyzes only the change-impact set. Under a governed budget
  // or disabled caches it neither replays nor persists
  // (compileSourceIncremental enforces the same guard as `cacheable`).
  DiagEngine diags;
  ipa::IncrementalInfo inc;
  auto cp =
      ipa::compileSourceIncremental(source, diags, limits, *store_, &inc);
  if (!cp) {
    JsonValue e = errorResponse("compile-error", "source does not compile");
    e.set("diagnostics",
          JsonValue::of(renderDiagnostics(diags, source, "<request>")));
    return e;
  }
  stats_.cold_analyses.fetch_add(1, std::memory_order_relaxed);
  size_t degraded = cp->base.degradedCount() + cp->pred.degradedCount();
  if (degraded > 0)
    stats_.degraded_requests.fetch_add(1, std::memory_order_relaxed);
  std::string signature = planSignature(*cp);
  std::string payload;
  if (r.cmd == "report") payload = renderPlanReport(*cp);
  else if (r.cmd == "emit")
    payload = emitParallelProgram(*cp->program, cp->pred, nullptr);

  if (cacheable && degraded == 0) {
    store_->putResponse(hash, "signature", signature);
    if (r.cmd != "analyze") store_->putResponse(hash, r.cmd, payload);
    maybeFlush();
  }

  v.set("cached", JsonValue::of(false));
  v.set("degraded", JsonValue::of(static_cast<int64_t>(degraded)));
  v.set("governed", JsonValue::of(governed));
  v.set("signature", JsonValue::of(signature));
  if (inc.incremental) {
    v.set("procs_analyzed",
          JsonValue::of(static_cast<int64_t>(inc.procs_analyzed)));
    v.set("procs_replayed",
          JsonValue::of(static_cast<int64_t>(inc.procs_replayed)));
  }
  if (r.cmd != "analyze") v.set(r.cmd, JsonValue::of(payload));
  return v;
}

JsonValue MfcDaemon::statusJson() {
  JsonValue v = JsonValue::object();
  v.set("ok", JsonValue::of(true));
  v.set("uptime_s", JsonValue::of(monotonicSeconds() - started_at_));
  v.set("pid", JsonValue::of(int64_t{::getpid()}));
  v.set("workers", JsonValue::of(int64_t{opts_.workers}));
  {
    std::lock_guard<std::mutex> lock(mu_);
    v.set("queue_depth", JsonValue::of(static_cast<int64_t>(queue_.size())));
  }
  v.set("queue_limit",
        JsonValue::of(static_cast<int64_t>(opts_.queue_limit)));
  auto counter = [](const std::atomic<uint64_t>& c) {
    return JsonValue::of(
        static_cast<int64_t>(c.load(std::memory_order_relaxed)));
  };
  v.set("accepted", counter(stats_.accepted));
  v.set("served", counter(stats_.served));
  v.set("shed", counter(stats_.shed));
  v.set("warm_hits", counter(stats_.warm_hits));
  v.set("cold_analyses", counter(stats_.cold_analyses));
  v.set("degraded_requests", counter(stats_.degraded_requests));
  v.set("errors", counter(stats_.errors));

  store::StoreStats ss = store_->stats();
  JsonValue sv = JsonValue::object();
  sv.set("persistent", JsonValue::of(store_->persistent()));
  sv.set("dir", JsonValue::of(store_->dir()));
  sv.set("records", JsonValue::of(static_cast<int64_t>(
                        store_->recordCount())));
  sv.set("loaded", JsonValue::of(ss.loaded));
  sv.set("quarantined",
         JsonValue::of(static_cast<int64_t>(ss.quarantined)));
  sv.set("saves", JsonValue::of(static_cast<int64_t>(ss.saves)));
  if (!ss.load_error.empty())
    sv.set("load_error", JsonValue::of(ss.load_error));
  v.set("store", sv);

  v.set("cache", perfStatsToJson(PerfStats::instance()));
  v.set("incremental",
        incrementalCountersToJson(PerfStats::instance().incremental));
  return v;
}

void MfcDaemon::maybeFlush() {
  bool flush_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (++stored_since_flush_ >= opts_.flush_every) {
      stored_since_flush_ = 0;
      flush_now = true;
    }
  }
  if (flush_now) {
    std::string err;
    if (!flushStore(err))
      std::fprintf(stderr, "mfcd: store flush failed: %s\n", err.c_str());
  }
}

bool MfcDaemon::flushStore(std::string& err) {
  if (!store_->persistent()) return true;
  store_->captureFeasibility();
  return store_->save(err);
}

}  // namespace padfa::server
