// warehouse: one client alternating a 1M-row scan/join/aggregate read with a
// ~1% append and a view refresh. The engines do most of the work.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "checks.h"
#include "common/parallel.h"
#include "exec/incremental/view.h"
#include "federation/coordinator.h"
#include "frontend/bdl.h"
#include "provider/provider.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace nexus;  // NOLINT
namespace tel = nexus::telemetry;

/// Rounds per --seconds: the run is counted in operations, so the table
/// reaches the same size on every run and every commit; one round takes
/// about 0.33 s on a 4-core 2.1 GHz host.
constexpr double kRoundsPerSecond = 3.0;
constexpr int kDayCuts = 4;

struct Sales {
  std::vector<int64_t> product, store, day, qty, price;
  int64_t rows() const { return static_cast<int64_t>(product.size()); }
};

TablePtr SalesTable(const Sales& s) {
  auto schema = Schema::Make({Field::Attr("product_id", DataType::kInt64),
                              Field::Attr("store", DataType::kInt64),
                              Field::Attr("day", DataType::kInt64),
                              Field::Attr("qty", DataType::kInt64),
                              Field::Attr("price_cents", DataType::kInt64)})
                    .ValueOrDie();
  return Table::Make(schema, {Column::FromInt64(s.product), Column::FromInt64(s.store),
                              Column::FromInt64(s.day), Column::FromInt64(s.qty),
                              Column::FromInt64(s.price)})
      .ValueOrDie();
}

Sales MakeSales(InputRng* rng, int64_t n, int64_t products) {
  Sales s;
  for (int64_t i = 0; i < n; ++i) {
    // Skewed product popularity: density ∝ x^(-1/2) over [0, 1).
    double u = rng->Unit();
    s.product.push_back(static_cast<int64_t>(static_cast<double>(products) * u * u));
    s.store.push_back(rng->Below(64));
    s.day.push_back(rng->Below(365));
    s.qty.push_back(1 + rng->Below(8));
    s.price.push_back(100 + rng->Below(20000));
  }
  return s;
}

struct WhData {
  int64_t n_products = 0;
  Sales base;
  std::vector<int64_t> category;  // by product id
  TablePtr sales, products;
  std::vector<Sales> batches;
  std::vector<TablePtr> batch_tables;
  std::vector<int64_t> cuts;  // day thresholds of the reads
};

WhData MakeData(uint64_t seed, bool small, int batches) {
  WhData d;
  d.n_products = small ? 2048 : 131072;
  int64_t n_sales = small ? 20000 : 1000000;
  InputRng rng(seed * 11 + 3);
  std::vector<int64_t> pid, brand;
  for (int64_t p = 0; p < d.n_products; ++p) {
    pid.push_back(p);
    d.category.push_back(rng.Below(128));
    brand.push_back(rng.Below(1000));
  }
  auto pschema = Schema::Make({Field::Attr("pid", DataType::kInt64),
                               Field::Attr("category", DataType::kInt64),
                               Field::Attr("brand", DataType::kInt64)})
                     .ValueOrDie();
  d.products = Table::Make(pschema, {Column::FromInt64(pid),
                                     Column::FromInt64(d.category),
                                     Column::FromInt64(brand)})
                   .ValueOrDie();
  d.base = MakeSales(&rng, n_sales, d.n_products);
  d.sales = SalesTable(d.base);
  for (int b = 0; b < batches; ++b) {
    d.batches.push_back(MakeSales(&rng, n_sales / 100, d.n_products));
    d.batch_tables.push_back(SalesTable(d.batches.back()));
  }
  // Distinct literals of one selectivity (about 3/4 of the days): the seed
  // and the round change the plan text, not the work, so every read
  // belongs to one latency distribution.
  for (int c = 0; c < kDayCuts; ++c) d.cuts.push_back(84 + 4 * c + rng.Below(4));
  return d;
}

std::string ReadText(int64_t cut, bool remote) {
  return "from sales | where day >= " + std::to_string(cut) +
         " | extend revenue := qty * price_cents | join " +
         (remote ? "products_remote" : "products") +
         " on product_id = pid | group by category aggregate sum(revenue) as "
         "revenue, count(*) as n";
}

const char kViewText[] =
    "from sales | where qty >= 2 | join products on product_id = pid | group "
    "by category aggregate sum(price_cents) as spend, count(*) as n";

/// Expected outputs, kept as running totals over every row appended so far.
struct Expected {
  std::vector<GroupTotals> reads;  // one per day cut
  GroupTotals view;

  void Fold(const WhData& d, const Sales& s) {
    reads.resize(d.cuts.size());
    for (int64_t r = 0; r < s.rows(); ++r) {
      size_t i = static_cast<size_t>(r);
      int64_t cat = d.category[static_cast<size_t>(s.product[i])];
      for (size_t c = 0; c < d.cuts.size(); ++c) {
        if (s.day[i] < d.cuts[c]) continue;
        auto& g = reads[c][cat];
        g.first += s.qty[i] * s.price[i];
        g.second += 1;
      }
      if (s.qty[i] >= 2) {
        auto& g = view[cat];
        g.first += s.price[i];
        g.second += 1;
      }
    }
  }
};

struct Deployment {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<incremental::ViewRegistry> views;
  double setup_s = 0, put_ms = 0;

  void Reset() {
    views.reset();
    cluster.reset();
  }
};

Deployment SetUp(const WhData& d) {
  Deployment dep;
  Stopwatch total;
  dep.cluster = std::make_unique<Cluster>();
  Must(dep.cluster->AddServer("relstore", MakeRelationalProvider()), "AddServer");
  Must(dep.cluster->AddServer("crm", MakeRelationalProvider()), "AddServer");
  {
    tel::SpanGuard span(kCategoryBench, "bench.put");
    Stopwatch put;
    Must(dep.cluster->PutData("relstore", "sales", Dataset(d.sales)), "PutData");
    Must(dep.cluster->PutData("relstore", "products", Dataset(d.products)), "PutData");
    Must(dep.cluster->PutData("crm", "products_remote", Dataset(d.products)),
         "PutData");
    dep.put_ms = put.ms();
  }
  dep.views = std::make_unique<incremental::ViewRegistry>(
      dep.cluster->provider("relstore")->catalog());
  Must(dep.views->Register("spend_by_category", ParseBdl(kViewText).ValueOrDie()),
       "view Register");
  dep.setup_s = total.s();
  return dep;
}

/// One client's state over a deployment.
struct Client {
  const WhData* data;
  Deployment* dep;
  Coordinator* coord;
  Expected* expected;
  RunResult* out;
  int64_t sales_rows = 0;
  bool probe = false;  // traced: also time the optimizer on its own

  /// One read; returns its latency (ms), or -1 when it failed.
  double Read(int cut, bool remote, double* base_rows) {
    std::string text = ReadText(data->cuts[static_cast<size_t>(cut)], remote);
    Result<Dataset> result = Status::Internal("not run");
    PlanPtr plan;
    Stopwatch sw;
    {
      tel::SpanGuard request(kCategoryBench, "bench.request");
      Result<PlanPtr> parsed = Status::Internal("not parsed");
      {
        tel::SpanGuard parse(kCategoryBench, "bench.parse");
        parsed = ParseBdl(text);
      }
      if (parsed.ok()) {
        plan = parsed.ValueOrDie();
        result = coord->Execute(plan);
      } else {
        result = parsed.status();
      }
    }
    double ms = sw.ms();
    out->acct.Attempt(result.status());
    if (!result.ok()) return -1;
    *base_rows += static_cast<double>(sales_rows + data->n_products);
    GroupTotals got;
    std::string err;
    if (!ToGroups(result.ValueOrDie(), "category", "revenue", "n", &got, &err)) {
      out->acct.Check("read: " + err);
    } else {
      out->acct.Check(CompareGroups(expected->reads[static_cast<size_t>(cut)], got,
                                    remote ? "remote read" : "local read"));
    }
    if (probe) {
      ProbeOptimizer(dep->cluster.get(), plan, result.ValueOrDie().num_rows(), &qerrors);
    }
    return ms;
  }

  /// Appends batch `b`; returns the Append time (ms), or -1 on failure.
  double Append(int b) {
    const TablePtr& batch = data->batch_tables[static_cast<size_t>(b)];
    Status st;
    Stopwatch sw;
    {
      tel::SpanGuard request(kCategoryBench, "bench.request");
      tel::SpanGuard span(kCategoryBench, "bench.append");
      st = dep->cluster->provider("relstore")->catalog()->Append("sales",
                                                                  Dataset(batch));
    }
    double ms = sw.ms();
    out->acct.Attempt(st);
    if (!st.ok()) return -1;
    sales_rows += batch->num_rows();
    expected->Fold(*data, data->batches[static_cast<size_t>(b)]);
    return ms;
  }

  /// Refreshes the view and checks it; returns the latency (ms) or -1.
  double Refresh(incremental::RefreshInfo* info) {
    Result<TablePtr> view = Status::Internal("not run");
    Stopwatch sw;
    {
      tel::SpanGuard request(kCategoryBench, "bench.request");
      tel::SpanGuard span(kCategoryBench, "bench.refresh");
      view = dep->views->Refresh("spend_by_category", info);
    }
    double ms = sw.ms();
    out->acct.Attempt(view.status());
    if (!view.ok()) return -1;
    GroupTotals got;
    std::string err;
    if (!ToGroups(Dataset(view.ValueOrDie()), "category", "spend", "n", &got, &err)) {
      out->acct.Check("view: " + err);
    } else {
      out->acct.Check(CompareGroups(expected->view, got, "view after refresh"));
    }
    return ms;
  }

  std::vector<double> qerrors;
};

}  // namespace

RunResult RunWarehouse(const Options& opt) {
  RunResult out;
  const int rounds =
      std::max(2, static_cast<int>(std::lround(opt.seconds * kRoundsPerSecond)));
  WhData data = MakeData(opt.seed, false, rounds + 1);
  Expected expected;
  expected.Fold(data, data.base);

  Deployment dep;
  std::vector<double> setup_s, put_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dep.Reset();
    dep = SetUp(data);
    setup_s.push_back(dep.setup_s);
    put_ms.push_back(dep.put_ms);
  }
  Coordinator coord(dep.cluster.get());
  Client client{&data, &dep, &coord, &expected, &out, data.base.rows(), false, {}};
  Transport* wire = dep.cluster->transport();

  // Warm-up round: both reads, the first append (which seeds the catalog's
  // statistics accumulator) and a refresh.
  double ignored = 0;
  client.Read(0, false, &ignored);
  client.Read(0, true, &ignored);
  client.Append(0);
  client.Refresh(nullptr);

  // Per-round figures; the reported rates are medians over rounds.
  std::vector<double> read_ms, round_read_ms, append_ms, refresh_ms;
  std::vector<double> round_ops_per_s, round_rows_per_s;
  std::vector<double> off_read, on_read;
  double appended = 0;
  int64_t reads = 0;
  LayerInputs in;
  in.put_ms = Median(put_ms);
  WireSnapshot w0 = WireSnapshot::Take(*wire);
  for (int r = 1; r <= rounds; ++r) {
    // Traced runs trace every other round; the others give the untraced
    // baseline for the overhead figure.
    bool traced = opt.trace && r % 2 == 0;
    std::optional<TracedPhase> phase;
    if (traced) phase.emplace(*wire);
    client.probe = traced;
    int cut = (r / 2) % kDayCuts;
    double round_rows = 0;
    Stopwatch round;
    double local = client.Read(cut, false, &round_rows);
    double remote = client.Read(cut, true, &round_rows);
    double app = client.Append(r);
    incremental::RefreshInfo info;
    double ref = client.Refresh(&info);
    round_ops_per_s.push_back(4.0 / round.s());
    if (local >= 0 && remote >= 0) {
      round_rows_per_s.push_back(round_rows / ((local + remote) / 1e3));
    }
    if (traced) {
      phase->Finish(&in);
      in.refreshes += 1;
      in.incremental_refreshes += info.incremental ? 1 : 0;
      in.state_bytes = info.state_bytes;
      if (app >= 0) {
        in.appended_rows += data.batch_tables[static_cast<size_t>(r)]->num_rows();
        in.append_ms += app;
      }
    }
    for (double ms : {local, remote}) {
      if (ms < 0) continue;
      read_ms.push_back(ms);
      (traced ? on_read : off_read).push_back(ms);
      ++reads;
    }
    if (local >= 0 && remote >= 0) round_read_ms.push_back(0.5 * (local + remote));
    if (app >= 0) {
      append_ms.push_back(app);
      appended += static_cast<double>(data.batch_tables[static_cast<size_t>(r)]->num_rows());
    }
    if (ref >= 0) refresh_ms.push_back(ref);
  }
  WireSnapshot w = WireSnapshot::Take(*wire).Minus(w0);

  char buf[240];
  if (!opt.trace) {
    out.Set("setup_s", Median(setup_s), "s");
    out.Set("query_p50_ms", Median(round_read_ms), "ms");
    out.Set("queries_per_s", Median(round_ops_per_s), "1/s");
    out.Set("rows_per_s", Median(round_rows_per_s), "rows/s");
    out.Set("wire_bytes_per_query",
            static_cast<double>(w.total_bytes) / std::max<int64_t>(1, reads), "B");
    out.Set("peak_rss_mb", PeakRssMb(), "MB");
    out.Line(SampleLine("read latency", read_ms, "ms"));
    out.Line(SampleLine("round mean read", round_read_ms, "ms"));
    out.Line(SampleLine("append latency", append_ms, "ms"));
    out.Line(SampleLine("refresh latency", refresh_ms, "ms"));
    std::snprintf(buf, sizeof(buf), "append_rows_per_s=%.1f refresh_p50_ms=%.4f",
                  appended / (Sum(append_ms) / 1e3), Median(refresh_ms));
    out.Line(buf);
  } else {
    in.qerrors = client.qerrors;
    in.untraced_p50_ms = Median(off_read);
    in.traced_p50_ms = Median(on_read);
    ProbeWire(Dataset(data.products), 5, &in);
    FillPerLayer(in, &out);
    out.Line(SampleLine("untraced reads", off_read, "ms"));
    out.Line(SampleLine("traced reads", on_read, "ms"));
  }
  std::snprintf(buf, sizeof(buf),
                "inputs: sales=%lld rows (+%d batches of %lld), products=%lld, "
                "%d rounds of 2 reads + append + refresh; sales reached %lld rows",
                static_cast<long long>(data.base.rows()), rounds + 1,
                static_cast<long long>(data.batches[0].rows()),
                static_cast<long long>(data.n_products), rounds,
                static_cast<long long>(client.sales_rows));
  out.Line(buf);
  out.Line(SampleLine("setup", setup_s, "s"));
  return out;
}

std::vector<std::string> SelfTestWarehouse() {
  std::vector<std::string> problems;
  WhData data = MakeData(5, true, 1);
  Expected expected;
  expected.Fold(data, data.base);
  Deployment dep = SetUp(data);
  Coordinator coord(dep.cluster.get());
  RunResult sink;
  Client client{&data, &dep, &coord, &expected, &sink, data.base.rows(), false, {}};
  double ignored = 0;
  client.Read(1, true, &ignored);
  client.Append(0);
  client.Refresh(nullptr);
  if (!sink.acct.correct || sink.acct.failed > 0) {
    problems.push_back("warehouse rejects a correct run: " + sink.acct.first_mismatch +
                       sink.acct.first_failure);
  }
  // Perturb one group sum of a real read result and of the refreshed view.
  auto read = coord.Execute(ParseBdl(ReadText(data.cuts[1], false)).ValueOrDie());
  auto view = dep.views->Current("spend_by_category");
  if (!read.ok() || !view.ok()) {
    problems.push_back("warehouse self-test could not rerun its operations");
    return problems;
  }
  GroupTotals got_read, got_view;
  std::string err;
  ToGroups(read.ValueOrDie(), "category", "revenue", "n", &got_read, &err);
  ToGroups(Dataset(view.ValueOrDie()), "category", "spend", "n", &got_view, &err);
  if (!CompareGroups(expected.reads[1], got_read, "read").empty() ||
      !CompareGroups(expected.view, got_view, "view").empty()) {
    problems.push_back("warehouse rejects a correct rerun");
  }
  got_read.begin()->second.first += 1;
  got_view.rbegin()->second.first -= 1;
  if (CompareGroups(expected.reads[1], got_read, "read").empty()) {
    problems.push_back("warehouse read checker accepts a perturbed group sum");
  }
  if (CompareGroups(expected.view, got_view, "view").empty()) {
    problems.push_back("warehouse view checker accepts a perturbed group sum");
  }
  return problems;
}

}  // namespace perfbench
