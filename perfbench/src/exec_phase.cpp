#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "phases.h"
#include "support/table.h"

using namespace padfa;

namespace perfbench {

bool checksumClose(double got, double seq_reference) {
  return std::fabs(got - seq_reference) <=
         1e-9 * (std::fabs(seq_reference) + 1);
}

namespace {

const char* const kConfigNames[] = {"seq", "base", "pred", "base_t1",
                                    "pred_t1"};
const char* const kSpanNames[] = {"interp.seq", "interp.base", "interp.pred",
                                  "interp.base_t1", "interp.pred_t1"};

}  // namespace

ExecPhase::ExecPhase(std::vector<ExecInput> programs, uint64_t seed,
                     unsigned threads)
    : programs_(std::move(programs)), rng_(seed), threads_(threads) {}

void ExecPhase::setup() {
  compiled_.clear();
  for (const ExecInput& in : programs_) {
    DiagEngine diags;
    auto cp = compileSource(in.source, diags);
    if (!cp)
      throw std::runtime_error(in.name + " does not compile:\n" +
                               diags.dump());
    compiled_.push_back(std::move(*cp));
  }
  samples_.assign(programs_.size(), {});
}

bool ExecPhase::step(Tracer& tracer, Tally& tally) {
  if (pos_ == 0) {
    order_.resize(programs_.size());
    std::iota(order_.begin(), order_.end(), 0);
    rng_.shuffle(order_);
  }
  size_t p = order_[pos_];
  pos_ = (pos_ + 1) % programs_.size();
  const CompiledProgram& cp = compiled_[p];
  const ExecInput& in = programs_[p];
  const AnalysisResult* plans[kConfigs] = {nullptr, &cp.base, &cp.pred,
                                           &cp.base, &cp.pred};
  unsigned threads[kConfigs] = {1, threads_, threads_, 1, 1};
  double checksum[kConfigs] = {};
  for (int c = 0; c < kConfigs; ++c) {
    InterpOptions opt;
    opt.plans = plans[c];
    opt.num_threads = threads[c];
    tracer.beginOp();
    std::string what = in.name + " " + kConfigNames[c];
    try {
      Stopwatch run;
      InterpStats st;
      {
        Tracer::Span s(tracer, kSpanNames[c]);
        st = execute(*cp.program, opt);
      }
      double ms = run.ms();
      Sample& smp = samples_[p][c];
      smp.wall_ms.push_back(ms);
      smp.sim_ms.push_back(st.simulated_seconds * 1e3);
      checksum[c] = st.checksum;
      smp.last = std::move(st);
    } catch (const std::exception& e) {
      tally.record(false, what + ": " + e.what());
      continue;
    }
    bool ok = checksumClose(checksum[c], in.expected_checksum);
    // The 1-thread run of a plan set must reproduce its nproc-thread run
    // bit for bit.
    if (ok && (c == kBase1 || c == kPred1))
      ok = std::bit_cast<uint64_t>(checksum[c]) ==
           std::bit_cast<uint64_t>(checksum[c - 2]);
    tally.record(ok, what + ": checksum mismatch");
  }
  return pos_ == 0;
}

size_t ExecPhase::samples() const {
  size_t n = 0;
  for (const auto& s : samples_)
    for (const Sample& c : s) n += c.wall_ms.size();
  return n;
}

double ExecPhase::configGeomean(Config c, bool simulated) const {
  std::vector<double> per_program;
  for (const auto& s : samples_)
    per_program.push_back(median(simulated ? s[c].sim_ms : s[c].wall_ms));
  return geomean(per_program);
}

void ExecPhase::endToEnd(Metrics& out) const {
  const char* names[kConfigs] = {"exec_seq_ms", "exec_base_ms", "exec_pred_ms",
                                 "exec_base_t1_ms", "exec_pred_t1_ms"};
  for (int c = 0; c < kConfigs; ++c)
    out[names[c]] = {configGeomean(static_cast<Config>(c), false), "ms"};
}

void ExecPhase::perLayer(Metrics& out) const {
  // Counters are deterministic per (program, configuration); sum one run
  // of each program.
  double base_entries = 0, pred_entries = 0, tests = 0, pruned = 0,
         waits = 0, extra_ms = 0;
  for (const auto& s : samples_) {
    base_entries += static_cast<double>(s[kBaseT].last.parallel_loops_entered);
    pred_entries += static_cast<double>(s[kPredT].last.parallel_loops_entered);
    tests += static_cast<double>(s[kPredT].last.runtime_tests_evaluated);
    pruned += static_cast<double>(s[kPredT].last.runtime_tests_pruned);
    waits += static_cast<double>(s[kPredT].last.doacross_waits);
    extra_ms += median(s[kBaseT].wall_ms) - median(s[kSeq].wall_ms);
  }
  out["runtime.base_entries"] = {base_entries, "count"};
  out["runtime.pred_entries"] = {pred_entries, "count"};
  out["runtime.base_entry_us"] = {
      base_entries > 0 ? extra_ms * 1e3 / base_entries : 0.0, "us"};
  out["runtime.rt_tests_evaluated"] = {tests, "count"};
  out["runtime.rt_tests_pruned"] = {pruned, "count"};
  out["runtime.doacross_waits"] = {waits, "count"};
  out["interp.base_sim_ms"] = {configGeomean(kBaseT, true), "ms"};
  out["interp.pred_sim_ms"] = {configGeomean(kPredT, true), "ms"};
}

std::string ExecPhase::paperView() const {
  std::string T = "x" + std::to_string(threads_);
  TextTable table({"program", "seq ms", "base x1", "base " + T, "(sim)",
                   "pred x1", "pred " + T, "(sim)"});
  auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return std::string(buf);
  };
  size_t x1_ok = 0, checked = 0;
  std::vector<std::string> slow_base;
  for (size_t p = 0; p < programs_.size(); ++p) {
    const auto& s = samples_[p];
    double seq = median(s[kSeq].wall_ms);
    double seq_sim = median(s[kSeq].sim_ms);
    auto speed = [&](Config c) { return seq / median(s[c].wall_ms); };
    auto sim = [&](Config c) { return seq_sim / median(s[c].sim_ms); };
    table.addRow({programs_[p].name, fmt(seq), fmt(speed(kBase1)),
                  fmt(speed(kBaseT)), fmt(sim(kBaseT)), fmt(speed(kPred1)),
                  fmt(speed(kPredT)), fmt(sim(kPredT))});
    for (Config c : {kBase1, kPred1}) {
      ++checked;
      x1_ok += speed(c) >= 0.95;
    }
    if (speed(kBase1) < 0.95 || speed(kBaseT) < 0.95)
      slow_base.push_back(programs_[p].name);
  }
  std::string out =
      "Figure E4 (wall-clock speedup over sequential, median per program; "
      "simulated makespan speedup in parentheses columns). Informational, "
      "never gating.\n" +
      table.render() + "\n";
  out += "gate x1 >= 0.95 (base and pred, 1 thread): " +
         std::to_string(x1_ok) + "/" + std::to_string(checked) + " pass\n";
  out += "gate no base column < 0.95: " +
         (slow_base.empty() ? std::string("pass")
                            : "fail (" + std::to_string(slow_base.size()) +
                                  " programs:");
  for (const auto& n : slow_base) out += " " + n;
  out += slow_base.empty() ? "\n" : ")\n";
  return out;
}

}  // namespace perfbench
