// Shared machinery of the Nexus end-to-end benchmark: run options, the
// result record every workload fills, timing statistics, span analysis for
// the traced run, and the effective-configuration report.
#ifndef NEXUS_PERFBENCH_HARNESS_H_
#define NEXUS_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/plan.h"
#include "federation/cluster.h"
#include "federation/transport.h"
#include "telemetry/telemetry.h"
#include "types/dataset.h"

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Category of the spans the benchmark opens around its own calls into the
/// program's layers (the program's own categories are in telemetry.h).
inline constexpr const char kCategoryBench[] = "bench";

/// Operation accounting and correctness of one run.
struct Accounting {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// First failing Status (or checker message); empty when none.
  std::string first_failure;
  /// False once any checker rejected an output of an operation that did
  /// not fail.
  bool correct = true;
  std::string first_mismatch;

  /// Records the outcome of one attempted operation.
  void Attempt(const nexus::Status& st);
  /// Records a checker verdict ("" = output correct).
  void Check(const std::string& error);
  void Merge(const Accounting& other);
};

/// What a run prints: metrics in declaration order plus free-form report
/// lines (sample counts, per-layer tables, workload-specific figures).
struct RunResult {
  Accounting acct;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> report;

  void Set(const std::string& name, double value, const std::string& unit);
  void Line(const std::string& text) { report.push_back(text); }
};

/// Wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  double s() const { return ms() / 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Sample statistics (nearest-rank quantiles on a sorted copy).
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);
double Sum(const std::vector<double>& v);
std::string SampleLine(const std::string& what, const std::vector<double>& v,
                       const std::string& unit);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Deterministic 64-bit generator for the benchmark's inputs (SplitMix64;
/// kept apart from the program's own Rng so inputs never depend on it).
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t Next();
  /// Uniform in [0, n).
  int64_t Below(int64_t n) { return static_cast<int64_t>(Next() % static_cast<uint64_t>(n)); }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Deltas of the process-wide MetricsRegistry counters between two points.
class CounterDelta {
 public:
  CounterDelta();
  int64_t Get(const std::string& name) const;

 private:
  std::map<std::string, int64_t> base_;
};

/// Transport totals between two points (messages and bytes by kind).
struct WireSnapshot {
  int64_t messages = 0, plan_bytes = 0, data_bytes = 0, total_bytes = 0;
  static WireSnapshot Take(const nexus::Transport& t);
  WireSnapshot Minus(const WireSnapshot& base) const;
  void Add(const WireSnapshot& delta);
};

/// Per-request layer accounting from recorded spans. Every request the
/// traced run measures is one trace rooted at a "bench.request" span.
struct LayerTimes {
  int64_t requests = 0;
  double request_us = 0;  ///< summed request wall time
  /// Self time (duration minus the part its children cover) summed by
  /// span category.
  std::map<std::string, double> self_us_by_category;
  /// Exclusive operator time (duration minus child operator spans; engine
  /// and morsel work beneath counts) keyed by "<layer>.<kind>" where layer
  /// is relational | arraydb | graphd | linalg | reference.
  std::map<std::string, double> op_us;
  /// Self time of engine spans by name prefix before the dot (rel, alg,
  /// graph, la, ad).
  std::map<std::string, double> engine_self_us;
  /// Inclusive time of outermost alg.* kernel spans.
  double algebra_kernel_us = 0;
  double morsel_busy_us = 0;
  /// Time inside bench.* probe spans by name (parse, put, append, ...).
  std::map<std::string, double> bench_us;
  std::map<std::string, int64_t> bench_calls;
  /// Self time of the request root plus the coordinator's "query" shells:
  /// wall time no named layer below accounts for.
  double unattributed_us = 0;
  /// Rows entering relational hash joins (both sides) and their spans'
  /// inclusive time.
  int64_t join_rows = 0;
  double join_engine_us = 0;

  /// Folds the spans recorded since the last ClearSpans into the totals.
  void Harvest(const std::vector<nexus::telemetry::SpanRecord>& spans);
  /// Self-time table, one line per category, per request.
  std::vector<std::string> Table() const;
};

/// Everything a traced run gathers for its per-layer metrics. Counts and
/// wire figures cover the traced requests only.
struct LayerInputs {
  LayerTimes times;
  WireSnapshot wire;
  int64_t fragments = 0;
  int64_t plan_cache_hits = 0, plan_cache_misses = 0;
  int64_t expr_compiles = 0, expr_cache_hits = 0;
  int64_t algebra_joins = 0, algebra_exts = 0;
  int64_t spill_bytes = 0;
  int64_t morsels = 0;
  /// Service admission (dashboard): summed queue wait and queued reports
  /// over `queue_requests` queries, summing to `queue_latency_ms`.
  double queue_wait_ms = 0, queue_latency_ms = 0;
  int64_t queued = 0, queue_requests = 0;
  /// Root-cardinality q-errors of the optimizer's estimates, one per request.
  std::vector<double> qerrors;
  /// NXB1 probes: bytes and rows encoded, and the time to encode/decode.
  int64_t encoded_bytes = 0, encoded_rows = 0;
  double encode_ms = 0, decode_ms = 0;
  double put_ms = 0;
  int64_t appended_rows = 0;
  double append_ms = 0;
  int64_t refreshes = 0, incremental_refreshes = 0, state_bytes = 0;
  /// Median request latency with tracing off and on (interleaved phases).
  double untraced_p50_ms = 0, traced_p50_ms = 0;

};

/// Computes every per-layer metric from `in` into `out`, plus report lines.
void FillPerLayer(const LayerInputs& in, RunResult* out);

/// One traced stretch of a run. Construction snapshots the registry
/// counters, transport totals and morsel count and switches tracing on;
/// Finish switches it off and folds the spans and deltas into `in`.
class TracedPhase {
 public:
  explicit TracedPhase(const nexus::Transport& wire);
  void Finish(LayerInputs* in);

 private:
  const nexus::Transport& wire_;
  CounterDelta counters_;
  WireSnapshot wire0_;
  int64_t morsels0_ = 0;
};

/// Runs the optimizer on its own over the cluster's federated catalog (a
/// bench.optimize span) and records the q-error of its root-cardinality
/// estimate against the rows the query returned.
void ProbeOptimizer(nexus::Cluster* cluster, const nexus::PlanPtr& plan,
                    int64_t actual_rows, std::vector<double>* qerrors);

/// Exits with a message when a set-up call of the program fails: a run
/// that cannot set up has nothing to measure.
void Must(const nexus::Status& st, const char* what);

/// Encodes `d` to NXB1 and decodes it `reps` times, adding the bytes, rows
/// and times to `in`.
void ProbeWire(const nexus::Dataset& d, int reps, LayerInputs* in);

/// Prints GetThreadCount() and every NEXUS_* environment variable.
std::vector<std::string> EffectiveConfiguration();

/// The per-layer metric names and units, in the order BENCHMARK.json lists
/// them. Every traced run reports each one.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
/// The end-to-end metric names and units.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

}  // namespace perfbench

#endif  // NEXUS_PERFBENCH_HARNESS_H_
