// The three workloads. Each builds its inputs from the seed, sets the
// program up through its public API, warms it up, measures, and checks
// every output against a computation made apart from the program.
#ifndef NEXUS_PERFBENCH_WORKLOADS_H_
#define NEXUS_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "harness.h"
#include "types/dataset.h"

namespace perfbench {

RunResult RunDashboard(const Options& opt);
RunResult RunWarehouse(const Options& opt);
RunResult RunGraph(const Options& opt);

/// Checker self-tests at reduced sizes: each runs real operations, expects
/// the checker to accept the program's output, then perturbs one cell and
/// expects a reported failure. Returns one line per problem found.
std::vector<std::string> SelfTestDashboard();
std::vector<std::string> SelfTestWarehouse();
std::vector<std::string> SelfTestGraph();

/// Set-up repetitions per run; setup_s is their median. Set-ups that take
/// milliseconds repeat more often than the warehouse's.
inline constexpr int kSetupReps = 3;
inline constexpr int kSetupRepsSmall = 25;

}  // namespace perfbench

#endif  // NEXUS_PERFBENCH_WORKLOADS_H_
