// graph: one client running PageRank to convergence on graphd, a sparse
// MatMul on linalg and the ExpandPageRank Iterate plan on relstore. The
// algebra, graph and linalg kernels do almost all the work.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "checks.h"
#include "common/parallel.h"
#include "core/expansion.h"
#include "federation/coordinator.h"
#include "frontend/bdl.h"
#include "provider/provider.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace nexus;  // NOLINT
namespace tel = nexus::telemetry;

/// Rounds per --seconds (one round = the three operations). The run is
/// counted in operations so every run does the same work.
constexpr double kRoundsPerSecond = 0.3;
constexpr double kDamping = 0.85;
constexpr double kEpsilon = 1e-8;
constexpr int64_t kMaxIters = 300;
/// Stated agreement between native and Iterate ranks: both stop once a
/// power step moves the vector by < eps (L1), which leaves each within
/// eps·d/(1-d) of the fixed point; allow ten times that.
constexpr double kRankTolerance = 10 * kEpsilon / (1 - kDamping);

struct GraphData {
  int64_t nodes = 0;
  EdgeList edges;
  TablePtr edge_table;
  Triplets a, b;
  NDArrayPtr a_array, b_array;
  Cells product;  // expected A × B
};

NDArrayPtr ToArray(const Triplets& t, const char* r, const char* c,
                   const char* attr) {
  auto attrs = Schema::Make({Field::Attr(attr, DataType::kFloat64)}).ValueOrDie();
  auto arr = NDArray::Make({DimensionSpec{r, 0, t.rows, 64},
                            DimensionSpec{c, 0, t.cols, 64}},
                           attrs)
                 .ValueOrDie();
  for (size_t e = 0; e < t.r.size(); ++e) {
    Must(arr->Set({t.r[e], t.c[e]}, {Value::Float64(t.v[e])}), "matrix cell");
  }
  return arr;
}

Triplets RandomSparse(InputRng* rng, int64_t n, double density) {
  Triplets t;
  t.rows = t.cols = n;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      if (rng->Unit() >= density) continue;
      t.r.push_back(i);
      t.c.push_back(j);
      // Small integers keep every product entry exact in float64.
      t.v.push_back(static_cast<double>(1 + rng->Below(9)));
    }
  }
  return t;
}

GraphData MakeData(uint64_t seed, bool small) {
  GraphData d;
  d.nodes = small ? 512 : 32768;
  const int64_t n_edges = small ? 2048 : 131072;
  const int64_t n_matrix = small ? 64 : 1024;
  InputRng rng(seed * 17 + 9);
  // Power-law edges: sources skewed toward low ids (many nodes have no
  // out-edges, so dangling mass matters); destinations by preferential
  // attachment (half copy the destination of an earlier edge).
  for (int64_t e = 0; e < n_edges; ++e) {
    double u = rng.Unit();
    int64_t s = static_cast<int64_t>(static_cast<double>(d.nodes) * u * u);
    int64_t t = (e > 0 && rng.Below(2) == 0)
                    ? d.edges.dst[static_cast<size_t>(rng.Below(e))]
                    : rng.Below(d.nodes);
    if (t == s) t = (t + 1) % d.nodes;
    d.edges.src.push_back(s);
    d.edges.dst.push_back(t);
  }
  auto schema = Schema::Make({Field::Attr("src", DataType::kInt64),
                              Field::Attr("dst", DataType::kInt64)})
                    .ValueOrDie();
  d.edge_table = Table::Make(schema, {Column::FromInt64(d.edges.src),
                                      Column::FromInt64(d.edges.dst)})
                     .ValueOrDie();
  d.a = RandomSparse(&rng, n_matrix, 0.02);
  d.b = RandomSparse(&rng, n_matrix, 0.02);
  d.a_array = ToArray(d.a, "i", "k", "a");
  d.b_array = ToArray(d.b, "k", "j", "b");
  d.product = MultiplyTriplets(d.a, d.b);
  return d;
}

struct Deployment {
  std::unique_ptr<Cluster> cluster;
  double setup_s = 0, put_ms = 0;
};

Deployment SetUp(const GraphData& d) {
  Deployment dep;
  Stopwatch total;
  dep.cluster = std::make_unique<Cluster>();
  Must(dep.cluster->AddServer("graphd", MakeGraphProvider()), "AddServer");
  Must(dep.cluster->AddServer("relstore", MakeRelationalProvider()), "AddServer");
  Must(dep.cluster->AddServer("linalg", MakeLinalgProvider()), "AddServer");
  {
    tel::SpanGuard span(kCategoryBench, "bench.put");
    Stopwatch put;
    Must(dep.cluster->PutData("graphd", "edges", Dataset(d.edge_table)), "PutData");
    Must(dep.cluster->PutData("relstore", "edges_rel", Dataset(d.edge_table)),
         "PutData");
    Must(dep.cluster->PutData("linalg", "A", Dataset(d.a_array)), "PutData");
    Must(dep.cluster->PutData("linalg", "B", Dataset(d.b_array)), "PutData");
    dep.put_ms = put.ms();
  }
  dep.setup_s = total.s();
  return dep;
}

enum class Op { kPageRank, kSpGemm, kIterate };
constexpr Op kOps[] = {Op::kPageRank, Op::kSpGemm, Op::kIterate};

const char* OpName(Op op) {
  switch (op) {
    case Op::kPageRank: return "pagerank";
    case Op::kSpGemm: return "spgemm";
    case Op::kIterate: return "iterate";
  }
  return "?";
}

std::string PageRankText() {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "from edges | pagerank src dst damping %.2f iters %lld eps %.0e",
                kDamping, static_cast<long long>(kMaxIters), kEpsilon);
  return buf;
}

struct Client {
  const GraphData* data;
  Coordinator* coord;
  Cluster* cluster;
  RunResult* out;
  bool probe = false;
  Ranks native;  // last native ranks, for the agreement check
  std::vector<double> qerrors;

  /// Builds the operation's plan (inside the request: parsing and, for
  /// Iterate, the expansion are part of what a user pays).
  Result<PlanPtr> BuildPlan(Op op) {
    switch (op) {
      case Op::kPageRank: {
        tel::SpanGuard parse(kCategoryBench, "bench.parse");
        return ParseBdl(PageRankText());
      }
      case Op::kSpGemm: {
        tel::SpanGuard parse(kCategoryBench, "bench.parse");
        return ParseBdl("from A | matmul B as c");
      }
      case Op::kIterate: {
        Result<PlanPtr> scan = Status::Internal("not parsed");
        {
          tel::SpanGuard parse(kCategoryBench, "bench.parse");
          scan = ParseBdl("from edges_rel");
        }
        if (!scan.ok()) return scan.status();
        FederatedCatalog fed(cluster);
        NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, fed.GetSchema("edges_rel"));
        PageRankOp pr;
        pr.src_col = "src";
        pr.dst_col = "dst";
        pr.damping = kDamping;
        pr.max_iters = kMaxIters;
        pr.epsilon = kEpsilon;
        return ExpandPageRank(scan.ValueOrDie(), pr, *schema);
      }
    }
    return Status::Internal("unknown op");
  }

  std::string Check(Op op, const Dataset& result) {
    std::string err;
    if (op == Op::kSpGemm) {
      Cells got;
      if (!ToCells(result, "i", "j", "c", &got, &err)) return "spgemm: " + err;
      return CompareCells(data->product, got, "spgemm");
    }
    Ranks ranks;
    if (!ToRanks(result, "node", "rank", &ranks, &err)) {
      return std::string(OpName(op)) + ": " + err;
    }
    std::string verdict = CheckPageRank(data->edges, ranks, kDamping, kEpsilon);
    if (!verdict.empty()) return std::string(OpName(op)) + " " + verdict;
    if (op == Op::kPageRank) {
      native = std::move(ranks);
      return "";
    }
    return CompareRanks(native, ranks, kRankTolerance);
  }

  /// Runs one operation; returns its latency (ms) or -1 when it failed.
  double Run(Op op) {
    Result<Dataset> result = Status::Internal("not run");
    PlanPtr plan;
    Stopwatch sw;
    {
      tel::SpanGuard request(kCategoryBench, "bench.request");
      Result<PlanPtr> built = BuildPlan(op);
      if (built.ok()) {
        plan = built.ValueOrDie();
        result = coord->Execute(plan);
      } else {
        result = built.status();
      }
    }
    double ms = sw.ms();
    out->acct.Attempt(result.status());
    if (!result.ok()) return -1;
    out->acct.Check(Check(op, result.ValueOrDie()));
    if (probe) {
      ProbeOptimizer(cluster, plan, result.ValueOrDie().num_rows(), &qerrors);
    }
    return ms;
  }

  /// Base rows an operation reads: the edge list, or both matrices' cells.
  int64_t BaseRows(Op op) const {
    if (op == Op::kSpGemm) return static_cast<int64_t>(data->a.r.size() + data->b.r.size());
    return static_cast<int64_t>(data->edges.src.size());
  }
};

}  // namespace

RunResult RunGraph(const Options& opt) {
  RunResult out;
  GraphData data = MakeData(opt.seed, false);
  const int rounds =
      std::max(2, static_cast<int>(std::lround(opt.seconds * kRoundsPerSecond)));

  Deployment dep;
  std::vector<double> setup_s, put_ms;
  for (int rep = 0; rep < kSetupRepsSmall; ++rep) {
    dep.cluster.reset();
    dep = SetUp(data);
    setup_s.push_back(dep.setup_s);
    put_ms.push_back(dep.put_ms);
  }
  Coordinator coord(dep.cluster.get());
  Client client{&data, &coord, dep.cluster.get(), &out, false, {}, {}};
  Transport* wire = dep.cluster->transport();

  // Warm-up: each operation once.
  for (Op op : kOps) client.Run(op);

  std::map<Op, std::vector<double>> op_ms;
  // Per-round figures; the reported rates are medians over rounds.
  std::vector<double> round_mean_ms, round_ops_per_s, round_rows_per_s;
  std::vector<double> all_ms, off_ms, on_ms;
  LayerInputs in;
  in.put_ms = Median(put_ms);
  WireSnapshot w0 = WireSnapshot::Take(*wire);
  for (int r = 0; r < rounds; ++r) {
    bool traced = opt.trace && r % 2 == 1;
    std::optional<TracedPhase> phase;
    if (traced) phase.emplace(*wire);
    client.probe = traced;
    double round_sum = 0, round_rows = 0;
    int ok = 0;
    Stopwatch round;
    for (Op op : kOps) {
      double ms = client.Run(op);
      if (ms < 0) continue;
      op_ms[op].push_back(ms);
      all_ms.push_back(ms);
      (traced ? on_ms : off_ms).push_back(ms);
      round_rows += static_cast<double>(client.BaseRows(op));
      round_sum += ms;
      ++ok;
    }
    round_ops_per_s.push_back(3.0 / round.s());
    if (ok == 3) {
      round_mean_ms.push_back(round_sum / 3);
      round_rows_per_s.push_back(round_rows / (round_sum / 1e3));
    }
    if (phase) phase->Finish(&in);
  }
  WireSnapshot w = WireSnapshot::Take(*wire).Minus(w0);

  char buf[240];
  if (!opt.trace) {
    out.Set("setup_s", Median(setup_s), "s");
    out.Set("query_p50_ms", Median(round_mean_ms), "ms");
    out.Set("queries_per_s", Median(round_ops_per_s), "1/s");
    out.Set("rows_per_s", Median(round_rows_per_s), "rows/s");
    out.Set("wire_bytes_per_query",
            static_cast<double>(w.total_bytes) /
                std::max<double>(1, static_cast<double>(all_ms.size())),
            "B");
    out.Set("peak_rss_mb", PeakRssMb(), "MB");
    out.Line(SampleLine("round mean latency", round_mean_ms, "ms"));
    for (Op op : kOps) {
      out.Line(SampleLine(std::string(OpName(op)) + "_ms", op_ms[op], "ms"));
    }
  } else {
    in.qerrors = client.qerrors;
    // Rounds alternate untraced / traced: overhead compares their means.
    std::vector<double> off_round, on_round;
    for (size_t i = 0; i < round_mean_ms.size(); ++i) {
      (i % 2 == 0 ? off_round : on_round).push_back(round_mean_ms[i]);
    }
    in.untraced_p50_ms = Median(off_round);
    in.traced_p50_ms = Median(on_round);
    ProbeWire(Dataset(data.edge_table), 5, &in);
    FillPerLayer(in, &out);
    out.Line(SampleLine("untraced ops", off_ms, "ms"));
    out.Line(SampleLine("traced ops", on_ms, "ms"));
  }
  std::snprintf(buf, sizeof(buf),
                "inputs: %lld nodes, %zu edges, matrices %lldx%lld with %zu and "
                "%zu nonzeros (product %zu); %d rounds; rank tolerance L1 %.2e",
                static_cast<long long>(data.nodes), data.edges.src.size(),
                static_cast<long long>(data.a.rows), static_cast<long long>(data.a.cols),
                data.a.r.size(), data.b.r.size(), data.product.size(), rounds,
                kRankTolerance);
  out.Line(buf);
  out.Line(SampleLine("setup", setup_s, "s"));
  return out;
}

std::vector<std::string> SelfTestGraph() {
  std::vector<std::string> problems;
  GraphData data = MakeData(7, true);
  Deployment dep = SetUp(data);
  Coordinator coord(dep.cluster.get());
  RunResult sink;
  Client client{&data, &coord, dep.cluster.get(), &sink, false, {}, {}};
  for (Op op : kOps) {
    auto plan = client.BuildPlan(op);
    auto result = plan.ok() ? coord.Execute(plan.ValueOrDie())
                            : Result<Dataset>(plan.status());
    if (!result.ok()) {
      problems.push_back(std::string(OpName(op)) + ": " + result.status().ToString());
      continue;
    }
    std::string verdict = client.Check(op, result.ValueOrDie());
    if (!verdict.empty()) problems.push_back("rejects a correct result: " + verdict);
    // Perturb one rank or one product entry of the real output.
    std::string err;
    if (op == Op::kSpGemm) {
      Cells got;
      ToCells(result.ValueOrDie(), "i", "j", "c", &got, &err);
      got.begin()->second += 1;
      if (CompareCells(data.product, got, "spgemm").empty()) {
        problems.push_back("spgemm checker accepts a perturbed product entry");
      }
    } else {
      Ranks got;
      ToRanks(result.ValueOrDie(), "node", "rank", &got, &err);
      got.begin()->second += 1e-3;
      got.rbegin()->second -= 1e-3;  // keeps the sum at 1
      if (CheckPageRank(data.edges, got, kDamping, kEpsilon).empty()) {
        problems.push_back(std::string(OpName(op)) + " checker accepts a perturbed rank");
      }
    }
  }
  return problems;
}

}  // namespace perfbench
