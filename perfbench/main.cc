// Nexus end-to-end benchmark: one workload per run, printed as report
// lines followed by one JSON object on the last line.
//
//   nexus_perfbench --workload dashboard|warehouse|graph --seed N
//                   --seconds S --trace 0|1
//   nexus_perfbench --selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

extern char** environ;

namespace {

using perfbench::Options;
using perfbench::RunResult;

int Usage() {
  std::fprintf(stderr,
               "usage: nexus_perfbench --workload dashboard|warehouse|graph "
               "--seed N --seconds S --trace 0|1\n"
               "       nexus_perfbench --selftest\n");
  return 2;
}

// Every switch stays at its default: NEXUS_* variables inherited from the
// caller are reported, then cleared before the program reads them.
std::vector<std::string> ClearSwitches() {
  std::vector<std::string> names;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "NEXUS_", 6) != 0) continue;
    std::string kv = *e;
    names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  return names;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

int SelfTest() {
  struct Suite {
    const char* name;
    std::vector<std::string> (*run)();
  };
  const Suite suites[] = {{"dashboard", perfbench::SelfTestDashboard},
                          {"warehouse", perfbench::SelfTestWarehouse},
                          {"graph", perfbench::SelfTestGraph}};
  int problems = 0;
  for (const Suite& s : suites) {
    std::vector<std::string> found = s.run();
    std::printf("selftest %-10s %s\n", s.name, found.empty() ? "ok" : "FAILED");
    for (const std::string& f : found) std::printf("  %s\n", f.c_str());
    problems += static_cast<int>(found.size());
  }
  return problems == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> cleared = ClearSwitches();
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--selftest") return SelfTest();
    if (i + 1 >= argc) return Usage();
    std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else {
      return Usage();
    }
  }
  if (!have_workload || !(opt.seconds > 0)) return Usage();

  RunResult result;
  if (opt.workload == "dashboard") {
    result = perfbench::RunDashboard(opt);
  } else if (opt.workload == "warehouse") {
    result = perfbench::RunWarehouse(opt);
  } else if (opt.workload == "graph") {
    result = perfbench::RunGraph(opt);
  } else {
    return Usage();
  }

  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  for (const std::string& line : perfbench::EffectiveConfiguration()) {
    std::printf("config: %s\n", line.c_str());
  }
  for (const std::string& n : cleared) {
    std::printf("config: %s was set by the caller and cleared\n", n.c_str());
  }
  for (const std::string& line : result.report) std::printf("%s\n", line.c_str());
  const auto& acct = result.acct;
  std::printf("accounting: attempted=%lld failed=%lld first_failure=%s\n",
              static_cast<long long>(acct.attempted),
              static_cast<long long>(acct.failed),
              acct.first_failure.empty() ? "-" : acct.first_failure.c_str());
  std::printf("correctness: %s%s\n", acct.correct ? "ok" : "MISMATCH ",
              acct.first_mismatch.c_str());
  for (const auto& [name, v] : result.metrics) {
    std::printf("metric %-34s %.6g %s\n", name.c_str(), v.first, v.second.c_str());
  }

  // The JSON line carries exactly the metrics of this mode, in the order
  // BENCHMARK.json lists them.
  const auto& wanted = opt.trace ? perfbench::PerLayerMetrics()
                                 : perfbench::EndToEndMetrics();
  std::string json = "{\"correct\": " + std::string(acct.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(acct.attempted) +
                     ", \"failed\": " + std::to_string(acct.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : wanted) {
    double value = 0;
    bool found = false;
    for (const auto& [n, v] : result.metrics) {
      if (n == name) {
        value = v.first;
        found = true;
      }
    }
    if (!found || !std::isfinite(value)) {
      std::fprintf(stderr, "metric %s was not measured\n", name.c_str());
      return 1;
    }
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", value);
    json += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " + num +
            ", \"unit\": " + JsonString(unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
