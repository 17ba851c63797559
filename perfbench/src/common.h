// Shared pieces of the benchmark: metrics, failure accounting,
// the environment guard, the committed expected-output files and the
// Phase interface the three measured paths implement.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Operations attempted and failed, plus the first few failure messages
/// (printed to stderr at the end so a failing run says why).
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> first_failures;

  /// Count one operation; `ok == false` counts it as failed.
  void record(bool ok, const std::string& what = "");
};

/// Seconds elapsed since construction.
class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }
  double ms() const { return seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// The first environment variable that changes which program is
/// measured (PADFA_NO_CACHE, PADFA_NO_VRA, PADFA_BUDGET_*,
/// PADFA_FAULT_RATE, PADFA_IPA_CHECK) found set, or nullopt.
std::optional<std::string> refusedEnvVar();

/// Online CPUs this process may run on (what `nproc` prints).
unsigned nprocCount();

/// The settings recorded with every run: nproc, the thread, scheduler
/// and Doacross-window knobs, and the build type, as one JSON object.
std::string environmentJson();

/// A committed "name value" file ('#' starts a comment line), in file
/// order. Returns false and fills `err` when unreadable or malformed.
bool readKeyValues(const std::string& path,
                   std::vector<std::pair<std::string, std::string>>& out,
                   std::string& err);

/// Render `entries` in the same format, under a comment header.
std::string formatKeyValues(
    const std::string& header,
    const std::vector<std::pair<std::string, std::string>>& entries);

/// "-"/"+" lines for every entry that differs between the two lists
/// (empty when identical).
std::string diffKeyValues(
    const std::vector<std::pair<std::string, std::string>>& committed,
    const std::vector<std::pair<std::string, std::string>>& fresh);

/// One measured path of the system (compile, execute or serve).
class Phase {
 public:
  virtual ~Phase() = default;
  /// Build the phase's inputs and state; timed into setup_s.
  virtual void setup() = 0;
  /// Called once before the first step and once after the last.
  virtual void begin(Tracer&) {}
  virtual void finish(Tracer&) {}
  /// Called when a time slice of this phase starts and ends.
  virtual void resume() {}
  virtual void pause() {}
  /// Run one unit of work, counting every operation into `tally`. Spans
  /// go to `tracer` when it is enabled; a traced run also fills the
  /// per-layer numbers. Returns true when the step completed a round.
  virtual bool step(Tracer& tracer, Tally& tally) = 0;
  virtual void endToEnd(Metrics& out) const = 0;
  virtual void perLayer(Metrics& out) const = 0;
  /// Timed samples taken, printed beside the metrics.
  virtual size_t samples() const = 0;
};

/// Run `phases` interleaved for `seconds`: in each of about
/// seconds / kCycleSeconds cycles, phase i runs for shares[i] of the
/// cycle. Then each phase finishes its current round, so every phase
/// runs whole rounds, and at least one. Interleaving spreads every
/// phase's samples over the whole run, so slow drifts in machine speed
/// average out instead of landing on one phase.
void runInterleaved(const std::vector<Phase*>& phases,
                    const std::vector<double>& shares, double seconds,
                    Tracer& tracer, Tally& tally);

inline constexpr double kCycleSeconds = 2;

}  // namespace perfbench
