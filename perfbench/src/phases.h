// The three measured paths. Each is driven only through the library's
// public functions, and timed from outside them.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "driver/padfa.h"
#include "presburger/feasibility_cache.h"
#include "server/server.h"
#include "support/json.h"
#include "stats.h"

namespace perfbench {

// ---------------------------------------------------------------- compile

struct CompileInput {
  std::string name;
  std::string source;           ///< corpus program at scale 1
  std::string expected_digest;  ///< hashHex(contentHash64(planSignature))
};

/// hashHex(contentHash64(planSignature(cp))): the committed digest form.
std::string signatureDigest(const std::string& signature);

/// compileSource() called step by step, serially, with one span per
/// step. Produces the same CompiledProgram as compileSource() (the
/// traced run checks the two signatures against each other).
std::optional<padfa::CompiledProgram> compileSteps(const std::string& source,
                                                   padfa::DiagEngine& diags,
                                                   Tracer& tracer);

/// One `mfc report` per operation on a corpus program, each with the
/// feasibility cache cleared first as in a fresh `mfc` process, followed
/// by a separately timed runLint + auditPlans over both plan sets.
class CompilePhase : public Phase {
 public:
  CompilePhase(std::vector<CompileInput> programs, uint64_t seed);

  void setup() override {}
  bool step(Tracer& tracer, Tally& tally) override;
  void finish(Tracer& tracer) override;
  void endToEnd(Metrics& out) const override;
  void perLayer(Metrics& out) const override;
  size_t samples() const override { return compile_ms_.size() + traced_ops_; }

 private:
  void untracedOp(const CompileInput& in, Tally& tally);
  void tracedOp(const CompileInput& in, Tracer& tracer, Tally& tally);
  /// Lint + audit of both plan sets; false when any plan is Unsound.
  bool verify(const padfa::CompiledProgram& cp, Tracer& tracer);

  std::vector<CompileInput> programs_;
  Rng rng_;
  std::vector<size_t> order_;  ///< this round's program order
  size_t pos_ = 0;             ///< next position in order_
  std::vector<double> compile_ms_;
  std::vector<double> verify_ms_;
  // Traced run only.
  std::vector<std::string> reference_sig_;  ///< compileSource's, per program
  uint64_t traced_ops_ = 0;
  double e2e_ms_ = 0;          ///< compileSource + render, summed
  double steps_on_ms_ = 0;     ///< compileSteps + render, tracer on
  double steps_off_ms_ = 0;    ///< the same, tracer off
  std::map<std::string, double> counters_;  ///< summed over traced ops
};

// ---------------------------------------------------------------- execute

struct ExecInput {
  std::string name;
  std::string source;           ///< corpus program at scale 4
  double expected_checksum = 0; ///< sequential checksum, committed
};

/// Whether a run's checksum is within 1e-9 * (|seq| + 1) of the
/// sequential reference.
bool checksumClose(double got, double seq_reference);

/// `execute` of corpus programs under five configurations: sequential,
/// base and predicated plans at nproc threads, and both at 1 thread.
class ExecPhase : public Phase {
 public:
  enum Config { kSeq, kBaseT, kPredT, kBase1, kPred1, kConfigs };

  ExecPhase(std::vector<ExecInput> programs, uint64_t seed, unsigned threads);

  void setup() override;
  /// One program under all five configurations.
  bool step(Tracer& tracer, Tally& tally) override;
  void endToEnd(Metrics& out) const override;
  void perLayer(Metrics& out) const override;
  size_t samples() const override;

  /// The Figure-E4 speedup table and the ROADMAP gate lines, derived
  /// from this run's medians. Informational: never gates the result.
  std::string paperView() const;

 private:
  struct Sample {
    std::vector<double> wall_ms, sim_ms;
    padfa::InterpStats last;  ///< counters of the latest run (deterministic)
  };
  double configGeomean(Config c, bool simulated) const;

  std::vector<ExecInput> programs_;
  Rng rng_;
  std::vector<size_t> order_;
  size_t pos_ = 0;
  unsigned threads_;
  std::vector<padfa::CompiledProgram> compiled_;
  std::vector<std::array<Sample, kConfigs>> samples_;
};

// ------------------------------------------------------------------ serve

/// A closed loop of one client sending `report` requests through
/// MfcDaemon::handleLine. Each request is an unchanged resubmit, a
/// comment-only edit or a body edit of `main`, in a fixed 12/5/3 mix per
/// block of 20 requests (60/25/15).
class ServePhase : public Phase {
 public:
  enum Class { kResubmit, kComment, kBody };

  /// `work_dir` holds the temporary store; it is created and removed here.
  ServePhase(std::vector<std::pair<std::string, std::string>> programs,
             uint64_t seed, std::string work_dir);
  ~ServePhase() override;

  void setup() override;
  void begin(Tracer& tracer) override;
  void finish(Tracer& tracer) override;
  /// The daemon keeps its feasibility-cache contents across slices, as a
  /// long-lived process would; the compile path clears that cache.
  void resume() override;
  void pause() override;
  /// One request of a seeded block of 20.
  bool step(Tracer& tracer, Tally& tally) override;
  void endToEnd(Metrics& out) const override;
  void perLayer(Metrics& out) const override;
  size_t samples() const override { return requests_; }

  /// A fresh daemon over an empty temporary store (first half of setup).
  void openStore();
  /// Submit every program once so resubmits can hit (second half).
  void prime();
  /// One timed request of `cls` for program `prog`, checked and counted.
  void request(Class cls, size_t prog, Tracer& tracer, Tally& tally);

 private:
  struct Program {
    std::string name, original;
    std::string body;         ///< latest body version (original or body edit)
    std::string current;      ///< latest source the daemon answered
    std::string current_sig;  ///< its plan signature
  };
  std::string storeDir() const { return work_dir_ + "/store"; }
  void flush(Tracer& tracer);

  std::vector<Program> programs_;
  Rng rng_;
  std::string work_dir_;
  std::unique_ptr<padfa::server::MfcDaemon> daemon_;
  std::vector<std::pair<std::string, padfa::pb::Feasibility>> feasibility_;
  std::vector<Class> block_;
  size_t pos_ = 0;
  uint64_t since_flush_ = 0;
  padfa::JsonValue status0_;  ///< daemon status when the phase began
  uint64_t edits_ = 0;  ///< makes every edit fresh
  std::vector<double> class_ms_[3];
  double timed_s_ = 0;
  uint64_t requests_ = 0;
  uint64_t non_hits_ = 0;
  uint64_t procs_replayed_ = 0, procs_analyzed_ = 0;
  uint64_t warm_hits_ = 0, cold_analyses_ = 0;
  uint64_t fp_hits_ = 0, fp_misses_ = 0;
  std::vector<double> save_ms_, open_ms_;
  double snapshot_bytes_ = 0;
};

}  // namespace perfbench
