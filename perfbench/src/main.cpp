// perfbench — the repository's benchmark.
//
//   perfbench --workload <compile-cold|exec-corpus|serve-edits>
//             --seed <n> --seconds <s> --trace <0|1>
//             --expected <dir> --work-dir <dir>
//   perfbench --regen --expected <dir> [--write]
//
// Every run sets up and measures all three paths (compile, execute,
// serve), so every end-to-end metric exists on every workload; the
// workload names the path that gets half of the measuring time. The
// last line of stdout is the result object. See README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common.h"
#include "corpus/corpus.h"
#include "driver/plan_signature.h"
#include "phases.h"
#include "presburger/feasibility_cache.h"

using namespace perfbench;

namespace {

constexpr const char* kDigestFile = "compile_digests.txt";
constexpr const char* kChecksumFile = "exec_checksums.txt";
constexpr int kCompileScale = 1;
constexpr int kExecScale = 4;
/// Set-up is repeated and its median reported as setup_s.
constexpr int kSetupRepeats = 7;
/// Share of --seconds given to the workload's own path; the other two
/// paths get the rest in equal parts.
constexpr double kPrimaryShare = 0.5;

const char* const kWorkloads[] = {"compile-cold", "exec-corpus",
                                  "serve-edits"};

struct Args {
  std::string workload, expected, work_dir;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool regen = false, write = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --expected DIR --work-dir DIR\n"
               "       perfbench --regen --expected DIR [--write]\n",
               why.c_str());
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--regen") { a.regen = true; continue; }
    if (k == "--write") { a.write = true; continue; }
    if (i + 1 >= argc) usage("missing value for " + k);
    std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v);
      else if (k == "--expected") a.expected = v;
      else if (k == "--work-dir") a.work_dir = v;
      else usage("unknown argument " + k);
    } catch (const std::exception&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.expected.empty()) usage("--expected is required");
  if (a.regen) return a;
  bool known = false;
  for (const char* w : kWorkloads) known |= a.workload == w;
  if (!known) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds >= 0) || (a.trace != 0 && a.trace != 1) ||
      a.work_dir.empty())
    usage("--seconds, --trace 0|1 and --work-dir are required");
  return a;
}

using KeyValues = std::vector<std::pair<std::string, std::string>>;

KeyValues readOrDie(const std::string& path) {
  KeyValues kv;
  std::string err;
  if (!readKeyValues(path, kv, err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    std::exit(1);
  }
  return kv;
}

const padfa::CorpusEntry& entryOrDie(const std::string& name) {
  const padfa::CorpusEntry* e = padfa::corpusEntry(name);
  if (!e) {
    std::fprintf(stderr, "perfbench: '%s' is not a corpus program\n",
                 name.c_str());
    std::exit(1);
  }
  return *e;
}

std::string fmtChecksum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Print how freshly computed expected outputs differ from the committed
/// ones; overwrite the files only with --write.
int regen(const Args& a) {
  KeyValues digests;
  for (const auto& e : padfa::corpus()) {
    padfa::DiagEngine diags;
    auto cp = padfa::compileSource(padfa::instantiate(e, kCompileScale), diags);
    if (!cp) {
      std::fprintf(stderr, "perfbench: %s does not compile\n", e.name.c_str());
      return 1;
    }
    digests.emplace_back(e.name, signatureDigest(padfa::planSignature(*cp)));
  }
  // Sequential wall time at scale 4 (median of 5) decides, once, which
  // programs exec-corpus runs: those at or above 2 ms. The committed list
  // stays fixed afterwards; delete the file to choose again.
  std::string checksum_path = a.expected + "/" + kChecksumFile;
  KeyValues committed_sums;
  std::string err;
  bool have_list = readKeyValues(checksum_path, committed_sums, err);
  KeyValues sums;
  std::printf("sequential wall time at scale %d (median of 5):\n", kExecScale);
  for (const auto& e : padfa::corpus()) {
    padfa::DiagEngine diags;
    auto cp = padfa::compileSource(padfa::instantiate(e, kExecScale), diags);
    std::vector<double> ms;
    double checksum = 0;
    for (int i = 0; i < 5; ++i) {
      Stopwatch sw;
      checksum = padfa::execute(*cp->program, {}).checksum;
      ms.push_back(sw.ms());
    }
    bool listed = false;
    for (const auto& [k, v] : committed_sums) listed |= k == e.name;
    bool selected = have_list ? listed : median(ms) >= 2.0;
    std::printf("  %-16s %8.2f ms%s\n", e.name.c_str(), median(ms),
                selected ? "  (exec-corpus)" : "");
    if (selected) sums.emplace_back(e.name, fmtChecksum(checksum));
  }

  struct File {
    std::string name, header;
    const KeyValues& fresh;
  };
  const File files[] = {
      {kDigestFile,
       "planSignature digest (hashHex(contentHash64)) per corpus program at "
       "scale 1,\nas compileSource produces it. Regenerate with "
       "`python3 perfbench/run.py --regen`.",
       digests},
      {kChecksumFile,
       "Sequential execute() checksum per exec-corpus program at scale 4.\n"
       "The list is every corpus program whose sequential run took >= 2 ms "
       "when it\nwas chosen. Regenerate with "
       "`python3 perfbench/run.py --regen`.",
       sums},
  };
  bool changed = false;
  for (const File& f : files) {
    std::string path = a.expected + "/" + f.name;
    KeyValues committed;
    std::string read_err;
    readKeyValues(path, committed, read_err);
    std::string diff = diffKeyValues(committed, f.fresh);
    std::printf("--- %s\n%s", path.c_str(),
                diff.empty() ? "(unchanged)\n" : diff.c_str());
    changed |= !diff.empty();
    if (!diff.empty() && a.write) {
      std::ofstream out(path);
      out << formatKeyValues(f.header, f.fresh);
      if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
      }
    }
  }
  if (changed && !a.write)
    std::printf("expected outputs differ; rerun with --write to accept\n");
  return 0;
}

std::string jsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parseArgs(argc, argv);
  if (auto var = refusedEnvVar()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report: %s is set, and it changes "
                 "which program is measured\n",
                 var->c_str());
    return 2;
  }
  unsigned nproc = nprocCount();
  // The analysis pool sizes itself from PADFA_THREADS, else from the
  // hardware thread count, which can exceed the CPUs this process may use.
  if (!std::getenv("PADFA_THREADS"))
    setenv("PADFA_THREADS", std::to_string(nproc).c_str(), 1);
  if (args.regen) return regen(args);

  std::string env = environmentJson();
  std::printf("perfbench: env %s\n", env.c_str());

  std::vector<CompileInput> compile_inputs;
  for (const auto& [name, digest] :
       readOrDie(args.expected + "/" + kDigestFile))
    compile_inputs.push_back(
        {name, padfa::instantiate(entryOrDie(name), kCompileScale), digest});
  std::vector<ExecInput> exec_inputs;
  for (const auto& [name, sum] :
       readOrDie(args.expected + "/" + kChecksumFile))
    exec_inputs.push_back({name,
                           padfa::instantiate(entryOrDie(name), kExecScale),
                           std::strtod(sum.c_str(), nullptr)});
  std::vector<std::pair<std::string, std::string>> serve_inputs;
  for (const CompileInput& in : compile_inputs)
    serve_inputs.emplace_back(in.name, in.source);

  // One seeded stream per phase, so a phase's operation sequence does not
  // depend on how much of another phase fitted in its time.
  std::string serve_dir =
      args.work_dir + "/serve-" + std::to_string(::getpid());
  CompilePhase compile(std::move(compile_inputs), args.seed * 3 + 0);
  ExecPhase exec(std::move(exec_inputs), args.seed * 3 + 1, nproc);
  ServePhase serve(std::move(serve_inputs), args.seed * 3 + 2, serve_dir);
  Phase* phases[] = {&compile, &exec, &serve};
  int primary = 0;
  while (args.workload != kWorkloads[primary]) ++primary;

  Tally tally;
  Tracer tracer;
  std::vector<double> setup_s;
  try {
    for (int i = 0; i < kSetupRepeats; ++i) {
      padfa::pb::FeasibilityCache::global().clear();
      Stopwatch sw;
      for (Phase* p : phases) p->setup();
      setup_s.push_back(sw.seconds());
    }
    std::vector<double> shares(3, (1 - kPrimaryShare) / 2);
    shares[primary] = kPrimaryShare;
    tracer.setEnabled(args.trace == 1);
    runInterleaved({phases, phases + 3}, shares, args.seconds, tracer, tally);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  Metrics metrics;
  if (args.trace == 0) {
    metrics["setup_s"] = {median(setup_s), "s"};
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024.0,
                              "MB"};
    for (Phase* p : phases) p->endToEnd(metrics);
    if (primary == 1) std::printf("%s", exec.paperView().c_str());
  } else {
    for (Phase* p : phases) p->perLayer(metrics);
    std::string path = args.work_dir + "/trace-" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".json";
    if (!tracer.writeChromeJson(path, env))
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    else
      std::printf("perfbench: %zu spans written to %s\n",
                  tracer.spans().size(), path.c_str());
  }

  std::printf("perfbench: samples: compile %zu, execute %zu, serve %zu\n",
              compile.samples(), exec.samples(), serve.samples());
  bool finite = true;
  for (const auto& [name, m] : metrics) finite &= std::isfinite(m.value);
  for (const std::string& f : tally.first_failures)
    std::fprintf(stderr, "perfbench: failed: %s\n", f.c_str());
  std::ostringstream out;
  out << "{\"correct\": " << (tally.failed == 0 && finite ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << jsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}
