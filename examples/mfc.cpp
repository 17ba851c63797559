// mfc — command-line front door to the library.
//
//   mfc report  <file.mf|corpus:NAME>        parallelization report
//   mfc run     <file.mf|corpus:NAME> [T]    execute (T threads, default 1)
//   mfc elpd    <file.mf|corpus:NAME>        ELPD-inspect candidate loops
//   mfc emit    <file.mf|corpus:NAME>        emit transformed parallel MF
//   mfc lint    <file.mf|corpus:NAME>        run the MF-lint checker battery
//   mfc audit   <file.mf|corpus:NAME>        re-verify plans (PlanAuditor)
//   mfc race    <file.mf|corpus:NAME>        dynamic race oracle over a run
//   mfc deps    <file.mf|corpus:NAME>        export the PDG (DOT; --json);
//               --callgraph exports the interprocedural call graph with
//               SCC clusters and content fingerprints instead
//   mfc slice   <file.mf|corpus:NAME> <line>:<var>   backward program slice
//   mfc list                                 list corpus programs
//   mfc serve                                run the mfcd analysis daemon
//   mfc daemon <status|ping|flush|stop>      control a running mfcd
//
// Verification flags (combinable with any command, e.g. `mfc run x.mf
// --lint --audit --race-check`):
//   --lint            run MF-lint before the command
//   --only=<ids>      restrict lint to comma-separated checker ids
//   --audit           run the plan-soundness auditor
//   --race-check      run the dynamic race oracle (sequential execution)
//   -Werror           promote all warnings to errors
//   -Werror=<ids>     promote only the listed diagnostic ids
//
// Daemon mode: `--daemon` routes report/emit through a running mfcd
// (socket from --socket=PATH or PADFA_MFCD_SOCKET), transparently
// falling back to in-process analysis when the daemon is unreachable.
//
// Sources can come from disk or from the built-in corpus via the
// `corpus:` prefix. Exit status is 1 when any enabled verifier finds a
// problem (lint errors under -Werror, an unsound plan, a race violation)
// and on unreadable inputs.
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "audit/lint.h"
#include "audit/plan_audit.h"
#include "audit/race_oracle.h"
#include "codegen/parallel_emit.h"
#include "corpus/corpus.h"
#include "driver/padfa.h"
#include "driver/plan_signature.h"
#include "ipa/ipa_export.h"
#include "pdg/pdg.h"
#include "pdg/slice.h"
#include "server/client.h"
#include "server/server.h"

using namespace padfa;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: mfc <command> [arguments] [flags]\n"
      "commands:\n"
      "  report  <file.mf|corpus:NAME>            parallelization report\n"
      "  run     <file.mf|corpus:NAME> [threads]  execute the program\n"
      "  elpd    <file.mf|corpus:NAME>            ELPD-inspect loops\n"
      "  emit    <file.mf|corpus:NAME>            emit parallel MF source\n"
      "  lint    <file.mf|corpus:NAME>            MF-lint checker battery\n"
      "  audit   <file.mf|corpus:NAME>            plan-soundness auditor\n"
      "  race    <file.mf|corpus:NAME>            dynamic race oracle\n"
      "  deps    <file.mf|corpus:NAME>            PDG export (DOT; --json);"
      " --callgraph for the call graph\n"
      "  slice   <file.mf|corpus:NAME> <line>:<var>  backward slice\n"
      "  signature <file.mf|corpus:NAME>          canonical plan signature\n"
      "  list                                     list corpus programs\n"
      "  serve                                    run the mfcd daemon\n"
      "  daemon <status|ping|flush|stop>          control a running mfcd\n"
      "flags: --lint --audit --race-check --only=<ids> -Werror[=<ids>] "
      "--json --callgraph --daemon --socket=<path>\n");
  return 2;
}

// Read an on-disk source with real I/O-failure detection: opening a
// directory "succeeds" on Linux and then reads zero bytes, which used to
// make `mfc report <dir>` exit 0 on an empty program. Reject non-regular
// files up front and check the stream state after the read.
bool readSourceFile(const std::string& path, std::string& out) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    std::fprintf(stderr, "mfc: cannot open '%s': %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  if (!S_ISREG(st.st_mode)) {
    std::fprintf(stderr, "mfc: cannot read '%s': not a regular file\n",
                 path.c_str());
    return false;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "mfc: cannot open '%s': %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  if (in.bad() || ss.fail()) {
    std::fprintf(stderr, "mfc: error reading '%s'\n", path.c_str());
    return false;
  }
  out = ss.str();
  return true;
}

bool loadSource(const std::string& spec, std::string& out) {
  if (spec.rfind("corpus:", 0) == 0) {
    const CorpusEntry* e = corpusEntry(spec.substr(7));
    if (!e) {
      std::fprintf(stderr, "mfc: unknown corpus program '%s'\n",
                   spec.substr(7).c_str());
      return false;
    }
    out = instantiate(*e);
    return true;
  }
  return readSourceFile(spec, out);
}

std::vector<std::string> splitIds(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : csv) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

struct Cli {
  std::string cmd;
  std::string spec;
  std::string criterion;  // slice only: "<line>:<var>"
  unsigned threads = 1;
  bool lint = false;
  bool audit = false;
  bool race = false;
  bool json = false;
  bool callgraph = false;  // deps only: call graph instead of PDG
  bool werror = false;
  bool daemon = false;           // route report/emit through mfcd
  std::string socket;            // --socket override for daemon mode
  std::vector<std::string> werror_ids;
  std::vector<std::string> only;
};

void applyWerror(DiagEngine& diags, const Cli& cli) {
  if (cli.werror) diags.setWarningsAsErrors(true);
  if (!cli.werror_ids.empty())
    diags.setWarningsAsErrors(
        std::set<std::string>(cli.werror_ids.begin(), cli.werror_ids.end()));
}

int report(const CompiledProgram& cp) {
  std::fputs(renderPlanReport(cp).c_str(), stdout);
  return 0;
}

int run(const CompiledProgram& cp, unsigned threads) {
  InterpOptions opt;
  if (threads > 1) {
    opt.plans = &cp.pred;
    opt.num_threads = threads;
  }
  InterpStats s = execute(*cp.program, opt);
  std::printf("checksum            : %.9f (%llu sink calls)\n", s.checksum,
              static_cast<unsigned long long>(s.sink_count));
  std::printf("wall time           : %.3f ms\n", 1e3 * s.total_seconds);
  if (threads > 1) {
    std::printf("simulated %u-proc   : %.3f ms\n", threads,
                1e3 * s.simulated_seconds);
    std::printf("parallel loops      : %llu entered, %llu run-time tests "
                "(%llu passed)\n",
                static_cast<unsigned long long>(s.parallel_loops_entered),
                static_cast<unsigned long long>(s.runtime_tests_evaluated),
                static_cast<unsigned long long>(s.runtime_tests_passed));
    std::printf("  run inline        : %llu (below the granularity grain)\n",
                static_cast<unsigned long long>(s.parallel_loops_inlined));
    std::printf("parallel wall       : %.3f ms prologue, %.3f ms region, "
                "%.3f ms epilogue\n",
                1e3 * s.parallel_prologue_seconds,
                1e3 * s.parallel_region_seconds,
                1e3 * s.parallel_epilogue_seconds);
  }
  return 0;
}

int elpd(const CompiledProgram& cp) {
  std::fputs(renderElpdReport(cp).c_str(), stdout);
  return 0;
}

/// Run MF-lint; returns 1 when the engine holds errors afterwards (only
/// possible under -Werror since checkers emit warnings/notes).
int lint(const CompiledProgram& cp, const Cli& cli,
         const std::string& source) {
  DiagEngine diags;
  applyWerror(diags, cli);
  LintOptions opt;
  opt.only = cli.only;
  runLint(*cp.program, cp.loops, diags, opt);
  std::string rendered = renderDiagnostics(diags, source, cli.spec);
  std::fputs(rendered.c_str(), stderr);
  if (diags.all().empty()) std::fprintf(stderr, "lint: clean\n");
  return diags.hasErrors() ? 1 : 0;
}

/// Re-verify parallelization plans with the independent PlanAuditor.
int audit(const CompiledProgram& cp, const Cli& cli,
          const std::string& source) {
  DiagEngine diags;
  applyWerror(diags, cli);
  int rc = 0;
  for (const AnalysisResult* ar : {&cp.base, &cp.pred}) {
    AuditReport rep = auditPlans(*cp.program, *ar, diags);
    std::printf("audit (%s): %zu loop(s): %zu independent, %zu via "
                "run-time test, %zu inconclusive, %zu UNSOUND\n",
                ar == &cp.base ? "base" : "predicated", rep.auditedCount(),
                rep.count(AuditVerdict::Independent),
                rep.count(AuditVerdict::DischargedTest),
                rep.count(AuditVerdict::Inconclusive),
                rep.count(AuditVerdict::Unsound));
    for (const auto& la : rep.loops) {
      std::printf("  %-16s %-14s %s (%zu access(es), %zu pair(s))\n",
                  la.loop->loop_id.c_str(),
                  std::string(loopStatusName(la.status)).c_str(),
                  std::string(auditVerdictName(la.verdict)).c_str(),
                  la.accesses, la.pairs_tested);
      for (const auto& n : la.notes) std::printf("      %s\n", n.c_str());
    }
    if (!rep.clean()) rc = 1;
  }
  std::string rendered = renderDiagnostics(diags, source, cli.spec);
  std::fputs(rendered.c_str(), stderr);
  return diags.hasErrors() ? 1 : rc;
}

/// Execute sequentially under the dynamic race oracle.
int raceCheck(const CompiledProgram& cp) {
  RaceOracle oracle(*cp.program, cp.pred);
  InterpOptions opt;
  opt.plans = &cp.pred;
  opt.race = &oracle;
  execute(*cp.program, opt);
  std::fputs(oracle.report().c_str(), stdout);
  std::printf("race check: %zu audited loop(s), %zu violation(s), %llu "
              "access(es) shadowed\n",
              oracle.auditedCount(), oracle.violationCount(),
              static_cast<unsigned long long>(oracle.totalAccesses()));
  return oracle.violationCount() > 0 ? 1 : 0;
}

/// Export the program dependence graph (DOT to stdout; --json for JSON),
/// or with --callgraph the interprocedural call graph.
int deps(const CompiledProgram& cp, const Cli& cli) {
  if (cli.callgraph) {
    ipa::CallGraph cg = ipa::CallGraph::build(*cp.program);
    ipa::ProcFingerprints fps = ipa::fingerprintProgram(*cp.program, cg);
    std::string out = cli.json ? ipa::callGraphToJson(cg, fps, *cp.program)
                               : ipa::callGraphToDot(cg, fps, *cp.program);
    std::fputs(out.c_str(), stdout);
    std::fprintf(stderr, "callgraph: %zu proc(s), %zu scc(s)\n",
                 cg.procs().size(), cg.sccCount());
    return 0;
  }
  ProgramPdg pdg = buildPdg(*cp.program, cp.loops);
  std::string out = cli.json ? pdgToJson(pdg, *cp.program)
                             : pdgToDot(pdg, *cp.program);
  std::fputs(out.c_str(), stdout);
  std::fprintf(stderr,
               "pdg: %zu node(s), %zu control, %zu flow, %zu anti, %zu "
               "output edge(s), %zu carried\n",
               pdg.stats.nodes, pdg.stats.control, pdg.stats.flow,
               pdg.stats.anti, pdg.stats.output, pdg.stats.carried);
  return 0;
}

/// Backward slice with caret diagnostics at every sliced statement.
int slice(const CompiledProgram& cp, const Cli& cli,
          const std::string& source) {
  SliceCriterion crit;
  std::string err;
  if (!parseSliceCriterion(cli.criterion, crit, err)) {
    std::fprintf(stderr, "mfc slice: %s\n", err.c_str());
    return 2;
  }
  ProgramPdg pdg = buildPdg(*cp.program, cp.loops);
  SliceResult result;
  if (!computeSlice(pdg, *cp.program, crit, result, err)) {
    std::fprintf(stderr, "mfc slice: %s\n", err.c_str());
    return 1;
  }
  std::printf("slice of '%s' at line %u (%s): %zu statement(s) on %zu "
              "line(s)\n",
              crit.var.c_str(), crit.line,
              std::string(cp.interner().str(result.proc->proc->name)).c_str(),
              result.nodes.size(), result.lines.size());
  DiagEngine diags;
  std::set<uint32_t> seen_lines;
  const CfgNode& cnode = result.proc->cfg.nodes[result.criterion_node];
  if (cnode.loc.valid()) {
    seen_lines.insert(cnode.loc.line);
    diags.note(cnode.loc, "slice criterion", "padfa-slice");
  }
  for (uint32_t n : result.nodes) {
    const CfgNode& node = result.proc->cfg.nodes[n];
    if (node.kind == CfgNodeKind::Entry || node.kind == CfgNodeKind::Exit)
      continue;
    if (!node.loc.valid() || !seen_lines.insert(node.loc.line).second)
      continue;
    diags.note(node.loc, "in the backward slice of '" + crit.var + "'",
               "padfa-slice");
  }
  std::fputs(renderDiagnostics(diags, source, cli.spec).c_str(), stdout);
  return 0;
}

bool knownCommand(const std::string& cmd) {
  static const char* kCommands[] = {"report", "run",  "elpd",  "emit",
                                    "lint",   "audit", "race",  "deps",
                                    "slice",  "signature", "list", "serve",
                                    "daemon"};
  for (const char* c : kCommands)
    if (cmd == c) return true;
  return false;
}

std::string socketFor(const Cli& cli) {
  return cli.socket.empty() ? server::defaultSocketPath() : cli.socket;
}

/// Route report/emit through a running mfcd. Returns true when the
/// daemon handled the request (rc filled in); false means "fall back to
/// in-process analysis" (daemon unreachable or shedding load).
bool tryDaemon(const Cli& cli, const std::string& source, int& rc) {
  server::Request req;
  req.cmd = cli.cmd;
  req.source = source;
  JsonValue resp;
  std::string err;
  if (!server::daemonCall(socketFor(cli), req, resp, err)) {
    std::fprintf(stderr,
                 "mfc: mfcd unavailable (%s); falling back to in-process "
                 "analysis\n",
                 err.c_str());
    return false;
  }
  if (!resp.get("ok").asBool()) {
    const std::string& code = resp.get("error").asString();
    if (code == "overloaded") {
      std::fprintf(stderr,
                   "mfc: mfcd shedding load; falling back to in-process "
                   "analysis\n");
      return false;
    }
    std::fprintf(stderr, "mfc: mfcd error: %s (%s)\n", code.c_str(),
                 resp.get("detail").asString().c_str());
    const std::string& diag = resp.get("diagnostics").asString();
    if (!diag.empty()) std::fputs(diag.c_str(), stderr);
    rc = 1;
    return true;
  }
  std::fputs(resp.get(cli.cmd).asString().c_str(), stdout);
  if (resp.get("cached").asBool())
    std::fprintf(stderr, "mfc: served warm from mfcd (source %s)\n",
                 resp.get("source_hash").asString().c_str());
  rc = 0;
  return true;
}

/// `mfc daemon <status|ping|flush|stop>` — control-plane client.
int daemonControl(const Cli& cli) {
  std::string action = cli.spec;
  if (action.empty()) {
    std::fprintf(stderr,
                 "mfc daemon: missing action (status|ping|flush|stop)\n");
    return 2;
  }
  server::Request req;
  if (action == "stop") req.cmd = "shutdown";
  else if (action == "status" || action == "ping" || action == "flush")
    req.cmd = action;
  else {
    std::fprintf(stderr, "mfc daemon: unknown action '%s'\n",
                 action.c_str());
    return 2;
  }
  JsonValue resp;
  std::string err;
  if (!server::daemonCall(socketFor(cli), req, resp, err)) {
    std::fprintf(stderr, "mfc daemon: %s\n", err.c_str());
    return 1;
  }
  std::printf("%s\n", resp.dump().c_str());
  return resp.get("ok").asBool() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--lint") cli.lint = true;
    else if (a == "--audit") cli.audit = true;
    else if (a == "--race-check") cli.race = true;
    else if (a == "--json") cli.json = true;
    else if (a == "--callgraph") cli.callgraph = true;
    else if (a == "--daemon") cli.daemon = true;
    else if (a.rfind("--socket=", 0) == 0) cli.socket = a.substr(9);
    else if (a == "-Werror") cli.werror = true;
    else if (a.rfind("-Werror=", 0) == 0) {
      for (auto& id : splitIds(a.substr(8))) cli.werror_ids.push_back(id);
    } else if (a.rfind("--only=", 0) == 0) {
      cli.only = splitIds(a.substr(7));
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
      return usage();
    } else {
      pos.push_back(a);
    }
  }
  if (!pos.empty()) cli.cmd = pos[0];
  if (pos.size() > 1) cli.spec = pos[1];
  if (pos.size() > 2) {
    if (cli.cmd == "slice")
      cli.criterion = pos[2];
    else
      cli.threads = static_cast<unsigned>(std::atoi(pos[2].c_str()));
  }

  if (cli.cmd.empty()) return usage();
  if (!knownCommand(cli.cmd)) {
    std::fprintf(stderr, "mfc: unknown subcommand '%s'\n", cli.cmd.c_str());
    return usage();
  }
  if (cli.cmd == "slice" && cli.criterion.empty()) {
    std::fprintf(stderr,
                 "mfc slice: missing criterion (expected <line>:<var>, e.g. "
                 "mfc slice prog.mf 12:sum)\n");
    return 2;
  }
  if (cli.cmd == "list") {
    for (const auto& e : corpus())
      std::printf("%-12s %s\n", e.name.c_str(), e.suite.c_str());
    return 0;
  }
  if (cli.cmd == "serve") {
    server::ServerOptions opts = server::ServerOptions::fromEnv();
    if (!cli.socket.empty()) opts.socket_path = cli.socket;
    std::string err;
    server::MfcDaemon daemon(std::move(opts));
    int rc = daemon.run(err);
    if (!err.empty()) std::fprintf(stderr, "mfc serve: %s\n", err.c_str());
    return rc;
  }
  if (cli.cmd == "daemon") return daemonControl(cli);
  if (cli.cmd.empty() || cli.spec.empty()) return usage();
  // Verifier subcommands are sugar for the matching flag.
  if (cli.cmd == "lint") cli.lint = true;
  if (cli.cmd == "audit") cli.audit = true;
  if (cli.cmd == "race") cli.race = true;

  std::string source;
  if (!loadSource(cli.spec, source)) return 1;
  // Daemon routing: report/emit (without local-only verifier flags) can
  // be served by a running mfcd; anything else needs the AST in-process.
  if (cli.daemon && (cli.cmd == "report" || cli.cmd == "emit") &&
      !cli.lint && !cli.audit && !cli.race) {
    int rc = 0;
    if (tryDaemon(cli, source, rc)) return rc;
  }
  DiagEngine diags;
  applyWerror(diags, cli);
  auto cp = compileSource(source, diags);
  if (!cp) {
    std::fputs(renderDiagnostics(diags, source, cli.spec).c_str(), stderr);
    return 1;
  }

  int rc = 0;
  try {
    if (cli.lint) rc |= lint(*cp, cli, source);
    if (cli.audit) rc |= audit(*cp, cli, source);
    if (cli.race) rc |= raceCheck(*cp);
    if (cli.cmd == "report") rc |= report(*cp);
    else if (cli.cmd == "run") rc |= run(*cp, cli.threads);
    else if (cli.cmd == "elpd") rc |= elpd(*cp);
    else if (cli.cmd == "deps") rc |= deps(*cp, cli);
    else if (cli.cmd == "slice") rc |= slice(*cp, cli, source);
    else if (cli.cmd == "signature")
      std::fputs(planSignature(*cp).c_str(), stdout);
    else if (cli.cmd == "emit") {
      EmitStats stats;
      std::string out = emitParallelProgram(*cp->program, cp->pred, &stats);
      std::fputs(out.c_str(), stdout);
      std::fprintf(stderr, "// %d parallel annotation(s), %d two-version "
                   "loop(s)\n",
                   stats.parallel_annotations, stats.two_version_loops);
    }
  } catch (const RuntimeError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return rc;
}
