// dashboard: a closed loop of small federated BDL queries through
// service::Server. Per-query overhead (front end, optimizer, admission,
// federation, NXB1, the provider plan cache) does most of the work.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "checks.h"
#include "common/parallel.h"
#include "frontend/bdl.h"
#include "provider/provider.h"
#include "service/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace nexus;  // NOLINT
namespace tel = nexus::telemetry;

struct DashData {
  int64_t n_orders = 0, n_customers = 0, side = 0;
  std::vector<int64_t> oid, cust, region, day, amount;
  std::vector<int64_t> segment, country;  // indexed by customer id
  std::vector<double> sensor;             // side × side, row-major
  TablePtr orders, customers;
  NDArrayPtr sensor_array;
};

TablePtr IntTable(const std::vector<std::string>& names,
                  std::vector<std::vector<int64_t>> cols) {
  std::vector<Field> fields;
  std::vector<Column> columns;
  for (size_t i = 0; i < names.size(); ++i) {
    fields.push_back(Field::Attr(names[i], DataType::kInt64));
    columns.push_back(Column::FromInt64(std::move(cols[i])));
  }
  return Table::Make(Schema::Make(fields).ValueOrDie(), std::move(columns))
      .ValueOrDie();
}

DashData MakeData(uint64_t seed, bool small) {
  DashData d;
  d.n_orders = small ? 2000 : 20000;
  d.n_customers = small ? 200 : 2000;
  d.side = small ? 64 : 256;
  InputRng rng(seed * 7 + 1);
  for (int64_t c = 0; c < d.n_customers; ++c) {
    d.segment.push_back(rng.Below(5));
    d.country.push_back(rng.Below(20));
  }
  for (int64_t i = 0; i < d.n_orders; ++i) {
    d.oid.push_back(i);
    // Skewed customer popularity: density ∝ x^(-1/3) over [0, 1).
    d.cust.push_back(static_cast<int64_t>(
        static_cast<double>(d.n_customers) * std::pow(rng.Unit(), 1.5)));
    d.region.push_back(rng.Below(8));
    d.day.push_back(rng.Below(365));
    // Amounts in int64 cents with a heavy tail: 1 order in 10 is large.
    d.amount.push_back(100 + rng.Below(50000) +
                       (rng.Below(10) == 0 ? rng.Below(500000) : 0));
  }
  std::vector<int64_t> cid(static_cast<size_t>(d.n_customers));
  for (int64_t c = 0; c < d.n_customers; ++c) cid[static_cast<size_t>(c)] = c;
  d.orders = IntTable({"oid", "cust_id", "region", "day", "amount"},
                      {d.oid, d.cust, d.region, d.day, d.amount});
  d.customers = IntTable({"cid", "segment", "country"},
                         {cid, d.segment, d.country});
  auto attrs = Schema::Make({Field::Attr("v", DataType::kFloat64)}).ValueOrDie();
  auto arr = NDArray::Make({DimensionSpec{"i", 0, d.side, 32},
                            DimensionSpec{"j", 0, d.side, 32}},
                           attrs)
                 .ValueOrDie();
  for (int64_t i = 0; i < d.side; ++i) {
    for (int64_t j = 0; j < d.side; ++j) {
      double v = static_cast<double>(rng.Below(1000));
      d.sensor.push_back(v);
      Must(arr->Set({i, j}, {Value::Float64(v)}), "sensor array");
    }
  }
  d.sensor_array = arr;
  return d;
}

enum class PanelKind { kGroups, kRows, kCells };

/// One distinct dashboard query and its expected output.
struct Panel {
  Panel(std::string n, std::string t) : name(std::move(n)), text(std::move(t)) {}
  std::string name;
  std::string text;
  PanelKind kind = PanelKind::kGroups;
  std::vector<std::string> cols;  // output columns the checker reads
  GroupTotals groups;
  std::vector<std::vector<int64_t>> rows;
  Cells cells;
  int64_t base_rows = 0;  // rows of the scanned collections
};

// Fixed levels `base + i * step` for i < count, each moved by a seeded
// jitter below `jitter`: the seed changes the literals, not how much work
// the panels do.
std::vector<int64_t> Levels(InputRng* rng, int64_t base, int64_t step, int count,
                            int64_t jitter) {
  std::vector<int64_t> out;
  for (int i = 0; i < count; ++i) out.push_back(base + i * step + rng->Below(jitter));
  return out;
}

// `count` distinct values from [0, n) scaled by `step`, in seeded order.
std::vector<int64_t> Distinct(InputRng* rng, int64_t n, int count, int64_t step) {
  std::vector<int64_t> all;
  for (int64_t i = 0; i < n; ++i) all.push_back(i * step);
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(all[static_cast<size_t>(i)], all[static_cast<size_t>(rng->Below(i + 1))]);
  }
  all.resize(static_cast<size_t>(count));
  return all;
}

std::string S(int64_t v) { return std::to_string(v); }

// Group totals over the orders rows passing `keep`, keyed by `key(row)`.
template <class Keep, class Key>
GroupTotals GroupOrders(const DashData& d, Keep keep, Key key) {
  GroupTotals g;
  for (int64_t r = 0; r < d.n_orders; ++r) {
    if (!keep(r)) continue;
    auto& e = g[key(r)];
    e.first += d.amount[static_cast<size_t>(r)];
    e.second += 1;
  }
  return g;
}

Cells Regrid(const DashData& d, int64_t i0, int64_t i1, int64_t j0, int64_t j1,
             int64_t f, bool use_max) {
  Cells c;
  for (int64_t i = i0; i < i1; ++i) {
    for (int64_t j = j0; j < j1; ++j) {
      double v = d.sensor[static_cast<size_t>(i * d.side + j)];
      auto key = std::make_pair(i / f, j / f);
      auto it = c.find(key);
      if (it == c.end()) {
        c[key] = v;
      } else {
        it->second = use_max ? std::max(it->second, v) : it->second + v;
      }
    }
  }
  return c;
}

constexpr int kVariants = 6;
/// Measurement windows (one panel cycle per client each) per --seconds; a
/// window of four clients takes about 0.3 s on a 4-core 2.1 GHz host.
constexpr double kWindowsPerSecond = 3.0;

std::vector<Panel> MakePanels(const DashData& d, uint64_t seed) {
  InputRng rng(seed * 13 + 5);
  std::vector<Panel> out;
  const auto& day = d.day;
  const auto& region = d.region;
  const auto& amount = d.amount;
  const auto& cust = d.cust;
  auto at = [](const std::vector<int64_t>& v, int64_t r) {
    return v[static_cast<size_t>(r)];
  };
  const int64_t scan = d.n_orders, joined = d.n_orders + d.n_customers;
  for (int64_t lo : Distinct(&rng, 336, kVariants, 1)) {
    Panel p{"region_window",
            "from orders | where day >= " + S(lo) + " and day < " + S(lo + 30) +
                " | group by region aggregate sum(amount) as total, count(*) as n"};
    p.cols = {"region", "total", "n"};
    p.groups = GroupOrders(
        d, [&](int64_t r) { return at(day, r) >= lo && at(day, r) < lo + 30; },
        [&](int64_t r) { return at(region, r); });
    p.base_rows = scan;
    out.push_back(p);
  }
  for (int64_t a : Levels(&rng, 20000, 5000, kVariants, 100)) {
    Panel p{"large_orders", "from orders | where amount >= " + S(a) +
                                " | group by region aggregate sum(amount) as "
                                "total, count(*) as n"};
    p.cols = {"region", "total", "n"};
    p.groups = GroupOrders(
        d, [&](int64_t r) { return at(amount, r) >= a; },
        [&](int64_t r) { return at(region, r); });
    p.base_rows = scan;
    out.push_back(p);
  }
  for (int64_t lo : Levels(&rng, 0, 60, kVariants, 5)) {
    Panel p{"segment_join",
            "from orders | where day >= " + S(lo) +
                " | join customers on cust_id = cid | group by segment "
                "aggregate sum(amount) as total, count(*) as n"};
    p.cols = {"segment", "total", "n"};
    p.groups = GroupOrders(
        d, [&](int64_t r) { return at(day, r) >= lo; },
        [&](int64_t r) { return at(d.segment, at(cust, r)); });
    p.base_rows = joined;
    out.push_back(p);
  }
  for (int64_t reg : Distinct(&rng, 8, kVariants, 1)) {
    Panel p{"country_join",
            "from orders | where region == " + S(reg) +
                " | join customers on cust_id = cid | group by country "
                "aggregate sum(amount) as total, count(*) as n"};
    p.cols = {"country", "total", "n"};
    p.groups = GroupOrders(
        d, [&](int64_t r) { return at(region, r) == reg; },
        [&](int64_t r) { return at(d.country, at(cust, r)); });
    p.base_rows = joined;
    out.push_back(p);
  }
  for (int64_t reg : Distinct(&rng, 8, kVariants, 1)) {
    Panel p{"top_orders", "from orders | where region == " + S(reg) +
                              " | sort by amount desc, oid | limit 10"};
    p.kind = PanelKind::kRows;
    p.cols = {"oid", "amount"};
    std::vector<std::vector<int64_t>> all;
    for (int64_t r = 0; r < d.n_orders; ++r) {
      if (at(region, r) == reg) all.push_back({at(d.oid, r), at(amount, r)});
    }
    std::sort(all.begin(), all.end(), [](const auto& x, const auto& y) {
      return x[1] != y[1] ? x[1] > y[1] : x[0] < y[0];
    });
    all.resize(std::min<size_t>(all.size(), 10));
    p.rows = all;
    p.base_rows = scan;
    out.push_back(p);
  }
  for (int64_t hi : Levels(&rng, 60, 50, kVariants, 5)) {
    Panel p{"top_customers",
            "from orders | where day < " + S(hi) +
                " | group by cust_id aggregate sum(amount) as total | sort by "
                "total desc, cust_id | limit 5"};
    p.kind = PanelKind::kRows;
    p.cols = {"cust_id", "total"};
    GroupTotals g = GroupOrders(
        d, [&](int64_t r) { return at(day, r) < hi; },
        [&](int64_t r) { return at(cust, r); });
    std::vector<std::vector<int64_t>> all;
    for (const auto& [c, v] : g) all.push_back({c, v.first});
    std::sort(all.begin(), all.end(), [](const auto& x, const auto& y) {
      return x[1] != y[1] ? x[1] > y[1] : x[0] < y[0];
    });
    all.resize(std::min<size_t>(all.size(), 5));
    p.rows = all;
    p.base_rows = scan;
    out.push_back(p);
  }
  const int64_t side = d.side, cells = d.side * d.side;
  const int64_t tile = side / 4, f_tile = side / 32;
  std::vector<int64_t> xs = Distinct(&rng, 13, kVariants, side / 16);
  std::vector<int64_t> ys = Distinct(&rng, 13, kVariants, side / 16);
  for (int v = 0; v < kVariants; ++v) {
    int64_t x = xs[static_cast<size_t>(v)], y = ys[static_cast<size_t>(v)];
    Panel p{"sensor_tile", "from sensor | slice i " + S(x) + " " + S(x + tile) +
                               ", j " + S(y) + " " + S(y + tile) + " | regrid i/" +
                               S(f_tile) + ", j/" + S(f_tile) + " using sum"};
    p.kind = PanelKind::kCells;
    p.cols = {"i", "j", "v"};
    p.cells = Regrid(d, x, x + tile, y, y + tile, f_tile, false);
    p.base_rows = cells;
    out.push_back(p);
  }
  const int64_t band = side / 2, f_band = side / 8;
  for (int64_t x : Distinct(&rng, 9, kVariants, side / 16)) {
    Panel p{"sensor_peak", "from sensor | slice i " + S(x) + " " + S(x + band) +
                               ", j 0 " + S(side) + " | regrid i/" + S(f_band) +
                               ", j/" + S(f_band) + " using max"};
    p.kind = PanelKind::kCells;
    p.cols = {"i", "j", "v"};
    p.cells = Regrid(d, x, x + band, 0, side, f_band, true);
    p.base_rows = cells;
    out.push_back(p);
  }
  return out;
}

/// A panel's output in the checker's plain form.
struct PanelOutput {
  GroupTotals groups;
  std::vector<std::vector<int64_t>> rows;
  Cells cells;
};

bool Extract(const Panel& p, const Dataset& result, PanelOutput* got,
             std::string* err) {
  switch (p.kind) {
    case PanelKind::kGroups:
      return ToGroups(result, p.cols[0], p.cols[1], p.cols[2], &got->groups, err);
    case PanelKind::kRows:
      return ToIntRows(result, p.cols, &got->rows, err);
    case PanelKind::kCells:
      return ToCells(result, p.cols[0], p.cols[1], p.cols[2], &got->cells, err);
  }
  return false;
}

std::string ComparePanel(const Panel& p, const PanelOutput& got) {
  switch (p.kind) {
    case PanelKind::kGroups:
      return CompareGroups(p.groups, got.groups, p.name);
    case PanelKind::kRows:
      return CompareRows(p.rows, got.rows, p.name);
    case PanelKind::kCells:
      return CompareCells(p.cells, got.cells, p.name);
  }
  return "unknown panel kind";
}

std::string CheckPanel(const Panel& p, const Dataset& result) {
  PanelOutput got;
  std::string err;
  if (!Extract(p, result, &got, &err)) return p.name + ": " + err;
  return ComparePanel(p, got);
}

/// The program under test, set up once per repetition.
struct Deployment {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<service::Server> server;
  double setup_s = 0;
  double put_ms = 0;
};

int ClientThreads() {
  return std::max(1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
}

int Slots(int threads) { return std::max(1, threads / 2); }

Deployment SetUp(const DashData& d, int threads) {
  Deployment dep;
  Stopwatch total;
  dep.cluster = std::make_unique<Cluster>();
  Must(dep.cluster->AddServer("relstore", MakeRelationalProvider()), "AddServer");
  Must(dep.cluster->AddServer("crm", MakeRelationalProvider()), "AddServer");
  Must(dep.cluster->AddServer("arraydb", MakeArrayProvider()), "AddServer");
  {
    tel::SpanGuard span(kCategoryBench, "bench.put");
    Stopwatch put;
    Must(dep.cluster->PutData("relstore", "orders", Dataset(d.orders)), "PutData");
    Must(dep.cluster->PutData("crm", "customers", Dataset(d.customers)), "PutData");
    Must(dep.cluster->PutData("arraydb", "sensor", Dataset(d.sensor_array)),
         "PutData");
    dep.put_ms = put.ms();
  }
  service::ServerOptions so;
  // Fewer execution slots than client sessions, so admission queues; the
  // queue holds every client, so nothing is rejected.
  so.max_concurrent = Slots(threads);
  so.queue_capacity = 4 * threads;
  dep.server = std::make_unique<service::Server>(dep.cluster.get(), so);
  Must(dep.server->RegisterTenant("analysts", service::TenantOptions{}),
       "RegisterTenant");
  Must(dep.server->RegisterTenant("reports", service::TenantOptions{}),
       "RegisterTenant");
  dep.setup_s = total.s();
  return dep;
}

/// What one client thread saw.
struct ClientOut {
  Accounting acct;
  std::vector<double> latency_ms;
  double base_rows = 0;
  double queue_wait_ms = 0;
  int64_t queued = 0;
  std::vector<double> qerrors;
};

struct Client {
  const std::vector<Panel>* panels;
  service::Server* server;
  Cluster* cluster;
  int64_t interactive_session = 0, standard_session = 0;
  /// This client's seeded cycle through every panel: each window sees the
  /// same mix of cheap and expensive panels.
  std::vector<size_t> order;
  int64_t sent = 0;

  void One(size_t p, bool probe, ClientOut* out) {
    const Panel& panel = (*panels)[p];
    bool interactive = (sent++ % 2) == 0;
    service::QueryOptions qo;
    qo.query_class = interactive ? service::QueryClass::kInteractive
                                 : service::QueryClass::kStandard;
    service::QueryReport report;
    Result<Dataset> result = Status::Internal("not run");
    PlanPtr plan;
    Stopwatch sw;
    {
      tel::SpanGuard request(kCategoryBench, "bench.request");
      Result<PlanPtr> parsed = Status::Internal("not parsed");
      {
        tel::SpanGuard parse(kCategoryBench, "bench.parse");
        parsed = ParseBdl(panel.text);
      }
      if (parsed.ok()) {
        plan = parsed.ValueOrDie();
        result = server->Execute(
            interactive ? interactive_session : standard_session, plan, qo,
            &report);
      } else {
        result = parsed.status();
      }
    }
    double ms = sw.ms();
    out->acct.Attempt(result.status());
    if (!result.ok()) return;
    out->latency_ms.push_back(ms);
    out->base_rows += static_cast<double>(panel.base_rows);
    out->queue_wait_ms += report.queue_wait_ms;
    out->queued += report.admission == "queued" ? 1 : 0;
    out->acct.Check(CheckPanel(panel, result.ValueOrDie()));
    if (probe) {
      ProbeOptimizer(cluster, plan, result.ValueOrDie().num_rows(), &out->qerrors);
    }
  }
};

/// Runs the first `n_clients` clients through `cycles` passes over their
/// panel cycle each, then merges their outcomes.
ClientOut RunClients(std::vector<Client>* clients, size_t n_clients,
                     int cycles, bool probe, double* wall_s) {
  std::vector<ClientOut> outs(n_clients);
  std::vector<std::thread> threads;
  Stopwatch wall;
  for (size_t t = 0; t < n_clients; ++t) {
    threads.emplace_back([&, t] {
      Client& c = (*clients)[t];
      for (int i = 0; i < cycles; ++i) {
        for (size_t p : c.order) c.One(p, probe, &outs[t]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  if (wall_s != nullptr) *wall_s = wall.s();
  ClientOut all;
  for (ClientOut& o : outs) {
    all.acct.Merge(o.acct);
    all.latency_ms.insert(all.latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    all.base_rows += o.base_rows;
    all.queue_wait_ms += o.queue_wait_ms;
    all.queued += o.queued;
    all.qerrors.insert(all.qerrors.end(), o.qerrors.begin(), o.qerrors.end());
  }
  return all;
}

}  // namespace

RunResult RunDashboard(const Options& opt) {
  RunResult out;
  DashData data = MakeData(opt.seed, false);
  std::vector<Panel> panels = MakePanels(data, opt.seed);
  const int threads = ClientThreads();

  Deployment dep;
  std::vector<double> setup_s, put_ms;
  for (int rep = 0; rep < kSetupRepsSmall; ++rep) {
    dep.server.reset();  // tear the previous repetition down first
    dep.cluster.reset();
    dep = SetUp(data, threads);
    setup_s.push_back(dep.setup_s);
    put_ms.push_back(dep.put_ms);
  }
  std::vector<Client> clients(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    Client& c = clients[static_cast<size_t>(t)];
    c.panels = &panels;
    c.server = dep.server.get();
    c.cluster = dep.cluster.get();
    InputRng rng(opt.seed * 1000 + static_cast<uint64_t>(t));
    for (int64_t p : Distinct(&rng, static_cast<int64_t>(panels.size()),
                              static_cast<int>(panels.size()), 1)) {
      c.order.push_back(static_cast<size_t>(p));
    }
    c.interactive_session = dep.server->OpenSession("analysts").ValueOrDie();
    c.standard_session = dep.server->OpenSession("reports").ValueOrDie();
  }
  // Warm-up: every client runs every panel once (first parse, first
  // compile, first shipment of each plan to each slot).
  ClientOut warm = RunClients(&clients, clients.size(), 1, false, nullptr);
  out.acct.Merge(warm.acct);

  Transport* wire = dep.cluster->transport();
  const int windows =
      std::max(3, static_cast<int>(std::lround(opt.seconds * kWindowsPerSecond)));
  char buf[240];
  if (!opt.trace) {
    // The run is counted in whole panel cycles, so every run sends the
    // same queries in the same order whatever its speed. Each window is
    // one cycle per client; throughput and the median latency are medians
    // over windows, so a burst of interference moves one window, not the
    // result.
    WireSnapshot w0 = WireSnapshot::Take(*wire);
    ClientOut run;
    std::vector<double> window_qps, window_p50, window_rows;
    for (int i = 0; i < windows; ++i) {
      double wall_s = 0;
      ClientOut win = RunClients(&clients, clients.size(), 1, false, &wall_s);
      window_qps.push_back(static_cast<double>(win.latency_ms.size()) / wall_s);
      window_p50.push_back(Median(win.latency_ms));
      window_rows.push_back(win.base_rows / (Sum(win.latency_ms) / 1e3));
      run.acct.Merge(win.acct);
      run.latency_ms.insert(run.latency_ms.end(), win.latency_ms.begin(),
                            win.latency_ms.end());
      run.queued += win.queued;
      run.queue_wait_ms += win.queue_wait_ms;
    }
    WireSnapshot w = WireSnapshot::Take(*wire).Minus(w0);
    out.acct.Merge(run.acct);
    double n = static_cast<double>(run.latency_ms.size());
    out.Set("setup_s", Median(setup_s), "s");
    out.Set("query_p50_ms", Median(window_p50), "ms");
    out.Set("queries_per_s", Median(window_qps), "1/s");
    out.Set("rows_per_s", Median(window_rows), "rows/s");
    out.Set("wire_bytes_per_query", static_cast<double>(w.total_bytes) / std::max(1.0, n), "B");
    out.Set("peak_rss_mb", PeakRssMb(), "MB");
    out.Line(SampleLine("window queries/s", window_qps, "1/s"));
    out.Line(SampleLine("query latency", run.latency_ms, "ms"));
    std::snprintf(buf, sizeof(buf),
                  "query_p99_ms=%.4f (n=%zu, %zu samples beyond p99)",
                  Quantile(run.latency_ms, 0.99), run.latency_ms.size(),
                  run.latency_ms.size() / 100);
    out.Line(buf);
    std::snprintf(buf, sizeof(buf),
                  "admission: %lld of %zu queries queued, mean queue wait %.4f ms",
                  static_cast<long long>(run.queued), run.latency_ms.size(),
                  run.queue_wait_ms / std::max(1.0, n));
    out.Line(buf);
  } else {
    // Repeated cycles of three equal phases. Tracing with concurrent
    // clients deadlocks the program (telemetry and transport take their
    // locks in opposite orders), so spans come from a single client, and
    // the untraced single-client phase is the baseline for the overhead.
    // Admission figures come from the all-clients phase: they are read
    // from QueryReport and need no tracing.
    LayerInputs in;
    in.put_ms = Median(put_ms);
    std::vector<double> off_ms, on_ms;
    int64_t all_queries = 0;
    for (int i = 0; i < std::max(1, windows / 3); ++i) {
      ClientOut all = RunClients(&clients, clients.size(), 1, false, nullptr);
      out.acct.Merge(all.acct);
      all_queries += static_cast<int64_t>(all.latency_ms.size());
      in.queue_latency_ms += Sum(all.latency_ms);
      in.queue_wait_ms += all.queue_wait_ms;
      in.queued += all.queued;
      ClientOut off = RunClients(&clients, 1, 1, false, nullptr);
      out.acct.Merge(off.acct);
      off_ms.insert(off_ms.end(), off.latency_ms.begin(), off.latency_ms.end());

      TracedPhase phase(*wire);
      ClientOut r = RunClients(&clients, 1, 1, true, nullptr);
      phase.Finish(&in);
      out.acct.Merge(r.acct);
      on_ms.insert(on_ms.end(), r.latency_ms.begin(), r.latency_ms.end());
      in.qerrors.insert(in.qerrors.end(), r.qerrors.begin(), r.qerrors.end());
    }
    in.queue_requests = all_queries;
    in.untraced_p50_ms = Median(off_ms);
    in.traced_p50_ms = Median(on_ms);
    ProbeWire(Dataset(data.customers), 20, &in);
    ProbeWire(Dataset(data.orders), 5, &in);
    FillPerLayer(in, &out);
    out.Line(SampleLine("untraced latency", off_ms, "ms"));
    out.Line(SampleLine("traced latency", on_ms, "ms"));
  }
  std::snprintf(buf, sizeof(buf),
                "inputs: orders=%lld customers=%lld sensor=%lldx%lld, %zu "
                "distinct plans (provider plan cache holds %zu), %d client "
                "threads, %d sessions, %d execution slots",
                static_cast<long long>(data.n_orders),
                static_cast<long long>(data.n_customers),
                static_cast<long long>(data.side), static_cast<long long>(data.side),
                panels.size(), Provider::kPlanCacheCapacity, threads, 2 * threads,
                Slots(threads));
  out.Line(buf);
  out.Line(SampleLine("setup", setup_s, "s"));
  return out;
}

std::vector<std::string> SelfTestDashboard() {
  std::vector<std::string> problems;
  DashData data = MakeData(3, true);
  std::vector<Panel> panels = MakePanels(data, 3);
  Deployment dep = SetUp(data, 2);
  int64_t session = dep.server->OpenSession("analysts").ValueOrDie();
  for (const Panel& p : panels) {
    auto plan = ParseBdl(p.text);
    if (!plan.ok()) {
      problems.push_back(p.name + ": " + plan.status().ToString());
      continue;
    }
    auto result = dep.server->Execute(session, plan.ValueOrDie());
    if (!result.ok()) {
      problems.push_back(p.name + ": " + result.status().ToString());
      continue;
    }
    PanelOutput got;
    std::string err;
    if (!Extract(p, result.ValueOrDie(), &got, &err)) {
      problems.push_back(p.name + ": " + err);
      continue;
    }
    std::string verdict = ComparePanel(p, got);
    if (!verdict.empty()) problems.push_back("rejects a correct result: " + verdict);
    // The same output with one cell changed (one group sum, the last top-k
    // amount, one array cell) must be rejected.
    if (!got.groups.empty()) got.groups.begin()->second.first += 1;
    if (!got.rows.empty()) got.rows.back().back() += 1;
    if (!got.cells.empty()) got.cells.begin()->second += 1;
    if (ComparePanel(p, got).empty()) {
      problems.push_back(p.name + ": accepts a result perturbed in one cell");
    }
  }
  return problems;
}

}  // namespace perfbench
