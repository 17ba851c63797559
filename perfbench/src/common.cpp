#include "common.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace perfbench {

void Tally::record(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (first_failures.size() < 8) first_failures.push_back(what);
}

void runInterleaved(const std::vector<Phase*>& phases,
                    const std::vector<double>& shares, double seconds,
                    Tracer& tracer, Tally& tally) {
  size_t n = phases.size();
  std::vector<bool> mid_round(n, true);  // true until a round completes
  for (Phase* p : phases) p->begin(tracer);
  int cycles =
      std::max(1, static_cast<int>(std::lround(seconds / kCycleSeconds)));
  double cycle = seconds / cycles;
  for (int c = 0; c < cycles; ++c) {
    for (size_t i = 0; i < n; ++i) {
      phases[i]->resume();
      Stopwatch slice;
      do {
        mid_round[i] = !phases[i]->step(tracer, tally);
      } while (slice.seconds() < cycle * shares[i]);
      phases[i]->pause();
    }
  }
  for (size_t i = 0; i < n; ++i) {
    phases[i]->resume();
    while (mid_round[i]) mid_round[i] = !phases[i]->step(tracer, tally);
    phases[i]->pause();
  }
  for (Phase* p : phases) p->finish(tracer);
}

std::optional<std::string> refusedEnvVar() {
  static const char* const kExact[] = {"PADFA_NO_CACHE", "PADFA_NO_VRA",
                                       "PADFA_FAULT_RATE", "PADFA_IPA_CHECK"};
  for (char** e = environ; e && *e; ++e) {
    std::string entry(*e);
    size_t eq = entry.find('=');
    std::string name = entry.substr(0, eq);
    bool empty = eq == std::string::npos || eq + 1 == entry.size();
    if (empty) continue;  // the library treats an empty value as unset
    if (name.rfind("PADFA_BUDGET_", 0) == 0) return name;
    for (const char* k : kExact)
      if (name == k) return name;
  }
  return std::nullopt;
}

unsigned nprocCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

std::string environmentJson() {
  auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return std::string("\"") + (v ? v : "") + "\"";
  };
  std::ostringstream o;
  o << "{\"nproc\": " << nprocCount()
    << ", \"PADFA_THREADS\": " << env("PADFA_THREADS")
    << ", \"PADFA_SCHED\": " << env("PADFA_SCHED")
    << ", \"PADFA_CHUNK\": " << env("PADFA_CHUNK")
    << ", \"PADFA_DOACROSS_WINDOW\": " << env("PADFA_DOACROSS_WINDOW")
    << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}";
  return o.str();
}

bool readKeyValues(const std::string& path,
                   std::vector<std::pair<std::string, std::string>>& out,
                   std::string& err) {
  std::ifstream in(path);
  if (!in) {
    err = "cannot read " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, value, extra;
    if (!(fields >> key >> value) || (fields >> extra)) {
      err = path + ":" + std::to_string(lineno) + ": expected 'name value'";
      return false;
    }
    out.emplace_back(key, value);
  }
  return true;
}

std::string formatKeyValues(
    const std::string& header,
    const std::vector<std::pair<std::string, std::string>>& entries) {
  std::string out;
  std::istringstream lines(header);
  std::string line;
  while (std::getline(lines, line)) out += "# " + line + "\n";
  for (const auto& [k, v] : entries) out += k + " " + v + "\n";
  return out;
}

std::string diffKeyValues(
    const std::vector<std::pair<std::string, std::string>>& committed,
    const std::vector<std::pair<std::string, std::string>>& fresh) {
  std::map<std::string, std::string> a(committed.begin(), committed.end());
  std::map<std::string, std::string> b(fresh.begin(), fresh.end());
  std::string out;
  for (const auto& [k, v] : a) {
    auto it = b.find(k);
    if (it == b.end() || it->second != v) out += "- " + k + " " + v + "\n";
    if (it != b.end() && it->second != v)
      out += "+ " + k + " " + it->second + "\n";
  }
  for (const auto& [k, v] : b)
    if (!a.count(k)) out += "+ " + k + " " + v + "\n";
  return out;
}

}  // namespace perfbench
