// mfcd — the long-lived analysis daemon.
//
// Architecture (see DESIGN.md §12):
//
//   accept thread --+--> bounded request queue --> worker threads
//                   |        (load shedding:          |
//                   |         queue full => an        v
//                   |         immediate `overloaded`  compile under a
//                   |         response, no analysis)  per-request
//                   |                                 AnalysisBudget
//   signal handler -+--> self-pipe --> drain: stop accepting, finish
//                                      queued requests, flush store,
//                                      unlink socket, exit 0
//
// Robustness posture, in order of priority:
//   1. Never a wrong plan. Warm responses come only from store records
//      keyed by the exact source content hash + format version, written
//      only by ungoverned, undegraded runs; per-record CRCs and
//      whole-snapshot quarantine keep disk corruption out of the
//      serving path entirely.
//   2. Never a hung queue. Every analysis runs under an AnalysisBudget
//      (server default and/or per-request deadline); exhaustion
//      degrades the affected loops to sound Sequential/baseline plans
//      and the response says so (`degraded`).
//   3. Never unbounded memory — not met yet. Requests are size-capped,
//      the queue is depth-capped (excess connections are shed with
//      `overloaded`), and one response per connection bounds socket
//      buffering. But store records are never evicted, so the store
//      grows with every distinct source and procedure it has served.
//      It stays unbounded until the store evicts (ROADMAP.md, the
//      "Serving" item: an LRU over sources under a byte cap).
//   4. Never a dirty exit. SIGTERM/SIGINT drain in-flight requests and
//      flush the store via the atomic snapshot path; a SIGKILL loses at
//      most the un-flushed tail — the next start serves cold for those
//      sources, warm for everything already snapshotted.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.h"
#include "store/summary_store.h"

namespace padfa::server {

struct ServerOptions {
  std::string socket_path;        ///< unix socket path (required)
  std::string store_dir;          ///< "" => ephemeral (no persistence)
  unsigned workers = 2;           ///< analysis worker threads
  size_t queue_limit = 64;        ///< max queued requests before shedding
  double request_deadline_ms = 0; ///< default per-request deadline (0 = none)
  unsigned flush_every = 4;       ///< store snapshot every N stored analyses
  size_t max_request_bytes = 8u << 20;
  bool enable_test_commands = false;  ///< allow {"cmd":"sleep"} (tests only)
  bool install_signal_handlers = true;

  /// Defaults refined by PADFA_MFCD_SOCKET, PADFA_STORE_DIR,
  /// PADFA_MFCD_WORKERS, PADFA_MFCD_QUEUE, PADFA_MFCD_DEADLINE_MS,
  /// PADFA_MFCD_FLUSH_EVERY.
  static ServerOptions fromEnv();
};

/// "/tmp/mfcd-<uid>.sock" unless PADFA_MFCD_SOCKET overrides it — the
/// address mfc's client mode and the daemon agree on by default.
std::string defaultSocketPath();

struct ServerStats {
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> warm_hits{0};
  std::atomic<uint64_t> cold_analyses{0};
  std::atomic<uint64_t> degraded_requests{0};
  std::atomic<uint64_t> errors{0};
};

class MfcDaemon {
 public:
  explicit MfcDaemon(ServerOptions opts);
  ~MfcDaemon();
  MfcDaemon(const MfcDaemon&) = delete;
  MfcDaemon& operator=(const MfcDaemon&) = delete;

  /// Bind + listen + load the store + spawn accept/worker threads.
  bool start(std::string& err);

  /// Begin a drain (idempotent, callable from any thread and from the
  /// signal path via the self-pipe).
  void requestStop();

  /// Block until a drain completes; joins all threads, flushes the
  /// store, unlinks the socket. Returns the process exit code.
  int wait();

  /// start() + wait() — the `mfcd` / `mfc serve` entry point.
  int run(std::string& err);

  /// Dispatch one request line to a response line (no sockets) — the
  /// unit-test seam; identical to what a worker does per connection.
  std::string handleLine(const std::string& line);

  const ServerOptions& options() const { return opts_; }
  const ServerStats& stats() const { return stats_; }
  store::SummaryStore& store() { return *store_; }

 private:
  void acceptLoop();
  void workerLoop();
  void serveConnection(int fd);
  JsonValue handleRequest(const Request& r);
  JsonValue handleAnalysis(const Request& r);
  JsonValue statusJson();
  void maybeFlush();
  bool flushStore(std::string& err);

  ServerOptions opts_;
  std::unique_ptr<store::SummaryStore> store_;
  ServerStats stats_;
  double started_at_ = 0;

  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int> queue_;
  bool stopping_ = false;
  bool started_ = false;
  uint64_t stored_since_flush_ = 0;
};

}  // namespace padfa::server
