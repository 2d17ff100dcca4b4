#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "common/parallel.h"
#include "core/serialize.h"
#include "federation/coordinator.h"
#include "optimizer/optimizer.h"
#include "telemetry/metrics.h"

extern char** environ;

namespace perfbench {

using nexus::telemetry::SpanRecord;

void Accounting::Attempt(const nexus::Status& st) {
  ++attempted;
  if (st.ok()) return;
  ++failed;
  if (first_failure.empty()) first_failure = st.ToString();
}

void Accounting::Check(const std::string& error) {
  if (error.empty()) return;
  if (correct) first_mismatch = error;
  correct = false;
}

void Accounting::Merge(const Accounting& other) {
  attempted += other.attempted;
  failed += other.failed;
  if (first_failure.empty()) first_failure = other.first_failure;
  if (correct && !other.correct) first_mismatch = other.first_mismatch;
  correct = correct && other.correct;
}

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& m : metrics) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

std::string SampleLine(const std::string& what, const std::vector<double>& v,
                       const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-22s n=%-6zu p50=%.4f p90=%.4f max=%.4f %s", what.c_str(),
                v.size(), Median(v), Quantile(v, 0.9),
                v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()),
                unit.c_str());
  return buf;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

uint64_t InputRng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

CounterDelta::CounterDelta()
    : base_(nexus::telemetry::MetricsRegistry::Global().CounterValues()) {}

int64_t CounterDelta::Get(const std::string& name) const {
  int64_t now = nexus::telemetry::MetricsRegistry::Global().counter(name)->value();
  auto it = base_.find(name);
  return now - (it == base_.end() ? 0 : it->second);
}

WireSnapshot WireSnapshot::Take(const nexus::Transport& t) {
  WireSnapshot w;
  w.messages = t.total_messages();
  w.plan_bytes = t.bytes_of(nexus::MessageKind::kPlan);
  w.data_bytes = t.bytes_of(nexus::MessageKind::kData);
  w.total_bytes = t.total_bytes();
  return w;
}

void WireSnapshot::Add(const WireSnapshot& delta) {
  messages += delta.messages;
  plan_bytes += delta.plan_bytes;
  data_bytes += delta.data_bytes;
  total_bytes += delta.total_bytes;
}

WireSnapshot WireSnapshot::Minus(const WireSnapshot& base) const {
  WireSnapshot w;
  w.messages = messages - base.messages;
  w.plan_bytes = plan_bytes - base.plan_bytes;
  w.data_bytes = data_bytes - base.data_bytes;
  w.total_bytes = total_bytes - base.total_bytes;
  return w;
}

namespace {

// Length of the union of [lo, hi) intervals clipped to [clip_lo, clip_hi).
double Covered(std::vector<std::pair<double, double>> iv, double clip_lo,
               double clip_hi) {
  std::sort(iv.begin(), iv.end());
  double covered = 0, cur_lo = 0, cur_hi = -1;
  bool open = false;
  for (auto [lo, hi] : iv) {
    lo = std::max(lo, clip_lo);
    hi = std::min(hi, clip_hi);
    if (hi <= lo) continue;
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

bool IsCategory(const SpanRecord& s, const char* cat) {
  return std::strcmp(s.category, cat) == 0;
}

std::string Prefix(const std::string& name, char stop) {
  size_t p = name.find(stop);
  return p == std::string::npos ? name : name.substr(0, p);
}

// Layer of an operator span by the server it ran on.
std::string LayerOfServer(const std::string& server) {
  if (server == "relstore" || server == "crm") return "relational";
  if (server.empty()) return "client";
  return server;
}

}  // namespace

void LayerTimes::Harvest(const std::vector<SpanRecord>& spans) {
  namespace tel = nexus::telemetry;
  std::unordered_map<tel::SpanId, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<size_t>> children(spans.size());
  std::vector<long> parent(spans.size(), -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = index.find(spans[i].parent);
    if (spans[i].parent != 0 && it != index.end()) {
      children[it->second].push_back(i);
      parent[i] = static_cast<long>(it->second);
    }
  }
  // Traces that belong to a measured request.
  std::map<uint64_t, bool> request_trace;
  for (const SpanRecord& s : spans) {
    if (IsCategory(s, kCategoryBench) && s.name == "bench.request") {
      request_trace[s.trace] = true;
      ++requests;
      request_us += s.wall_dur_us;
    }
  }
  auto interval = [&](size_t i) {
    return std::make_pair(spans[i].wall_start_us,
                          spans[i].wall_start_us + spans[i].wall_dur_us);
  };
  auto self_time = [&](size_t i, bool (*counts)(const SpanRecord&)) {
    std::vector<std::pair<double, double>> iv;
    for (size_t c : children[i]) {
      if (counts == nullptr || counts(spans[c])) iv.push_back(interval(c));
    }
    auto [lo, hi] = interval(i);
    return spans[i].wall_dur_us - Covered(std::move(iv), lo, hi);
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (IsCategory(s, kCategoryBench) && s.name != "bench.request") {
      std::string probe = s.name.substr(s.name.find('.') + 1);
      bench_us[probe] += s.wall_dur_us;
      bench_calls[probe] += 1;
    }
    if (request_trace.count(s.trace) == 0) continue;
    double self = self_time(i, nullptr);
    self_us_by_category[s.category] += self;
    if (IsCategory(s, kCategoryBench) && s.name == "bench.request") {
      unattributed_us += self;
    } else if (IsCategory(s, tel::kCategoryCoordinator) && s.name == "query") {
      unattributed_us += self;
    } else if (IsCategory(s, tel::kCategoryOperator)) {
      double excl = self_time(i, [](const SpanRecord& c) {
        return !IsCategory(c, tel::kCategoryEngine) &&
               !IsCategory(c, tel::kCategoryMorsel);
      });
      op_us[LayerOfServer(s.server) + "." + Prefix(s.name, '[')] += excl;
    } else if (IsCategory(s, tel::kCategoryEngine)) {
      std::string family = Prefix(s.name, '.');
      engine_self_us[family] += self;
      if (family == "alg") {
        bool nested = false;
        for (long p = parent[i]; p >= 0; p = parent[static_cast<size_t>(p)]) {
          if (IsCategory(spans[static_cast<size_t>(p)], tel::kCategoryEngine) &&
              Prefix(spans[static_cast<size_t>(p)].name, '.') == "alg") {
            nested = true;
            break;
          }
        }
        if (!nested) algebra_kernel_us += s.wall_dur_us;
      }
      if (s.name == "rel.HashJoin") {
        join_rows += s.CounterOr("rows_left", 0) + s.CounterOr("rows_right", 0);
        join_engine_us += s.wall_dur_us;
      }
    } else if (IsCategory(s, tel::kCategoryMorsel)) {
      morsel_busy_us += s.wall_dur_us;
    }
  }
}

std::vector<std::string> LayerTimes::Table() const {
  std::vector<std::string> out;
  double per = requests > 0 ? 1.0 / static_cast<double>(requests) : 0.0;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "layer self time over %lld traced requests (ms/request; "
                "request wall %.3f ms):",
                static_cast<long long>(requests), request_us * per / 1e3);
  out.push_back(buf);
  for (const auto& [cat, us] : self_us_by_category) {
    std::snprintf(buf, sizeof(buf), "  %-12s %10.4f", cat.c_str(), us * per / 1e3);
    out.push_back(buf);
  }
  for (const auto& [op, us] : op_us) {
    std::snprintf(buf, sizeof(buf), "  op %-24s %10.4f", op.c_str(),
                  us * per / 1e3);
    out.push_back(buf);
  }
  for (const auto& [fam, us] : engine_self_us) {
    std::snprintf(buf, sizeof(buf), "  engine %-8s self %10.4f", fam.c_str(),
                  us * per / 1e3);
    out.push_back(buf);
  }
  return out;
}

std::vector<std::string> EffectiveConfiguration() {
  std::vector<std::string> out;
  out.push_back("threads=" + std::to_string(nexus::GetThreadCount()));
  std::string vars;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "NEXUS_", 6) == 0) vars += std::string(" ") + *e;
  }
  out.push_back("NEXUS_* variables:" + (vars.empty() ? std::string(" (none set)") : vars));
  return out;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"setup_s", "s"},
      {"query_p50_ms", "ms"},
      {"queries_per_s", "1/s"},
      {"rows_per_s", "rows/s"},
      {"wire_bytes_per_query", "B"},
      {"peak_rss_mb", "MB"},
  };
  return kList;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"frontend.parse_us", "us/query"},
      {"optimizer.optimize_us", "us/query"},
      {"optimizer.root_qerror", "ratio"},
      {"service.queue_wait_pct", "%"},
      {"service.queued_pct", "%"},
      {"federation.coordinator_self_us", "us/query"},
      {"federation.fragments_per_query", "count/query"},
      {"federation.messages_per_query", "count/query"},
      {"federation.plan_bytes_per_query", "B/query"},
      {"federation.data_bytes_per_query", "B/query"},
      {"provider.plan_cache_hits", "count/query"},
      {"provider.plan_cache_misses", "count/query"},
      {"provider.plan_cache_hit_ratio", "ratio"},
      {"provider.server_ms", "ms/query"},
      {"core.encode_MBps", "MB/s"},
      {"core.decode_MBps", "MB/s"},
      {"core.wire_bytes_per_row", "B/row"},
      {"core.put_ms", "ms"},
      {"core.append_rows_per_s", "rows/s"},
      {"expr.compiles", "count/query"},
      {"expr.program_cache_hits", "count/query"},
      {"relational.filter_ms", "ms/query"},
      {"relational.join_ms", "ms/query"},
      {"relational.aggregate_ms", "ms/query"},
      {"relational.join_rows_per_s", "rows/s"},
      {"arraydb.op_pct", "%"},
      {"algebra.join_calls", "count/query"},
      {"algebra.ext_calls", "count/query"},
      {"algebra.kernel_ms", "ms/query"},
      {"graph.engine_pct", "%"},
      {"linalg.engine_pct", "%"},
      {"exec.refresh_incremental_pct", "%"},
      {"exec.state_bytes", "B"},
      {"exec.spill_bytes", "B/query"},
      {"common.morsels", "count/query"},
      {"common.morsel_busy_ms", "ms/query"},
      {"telemetry.attributed_pct", "%"},
      {"telemetry.overhead_pct", "%"},
  };
  return kList;
}

}  // namespace perfbench

namespace perfbench {

TracedPhase::TracedPhase(const nexus::Transport& wire)
    : wire_(wire),
      wire0_(WireSnapshot::Take(wire)),
      morsels0_(nexus::GetParallelStats().morsels) {
  nexus::telemetry::ClearSpans();
  nexus::telemetry::SetEnabled(true);
}

void TracedPhase::Finish(LayerInputs* in) {
  nexus::telemetry::SetEnabled(false);
  in->morsels += nexus::GetParallelStats().morsels - morsels0_;
  in->wire.Add(WireSnapshot::Take(wire_).Minus(wire0_));
  const CounterDelta& d = counters_;
  in->fragments += d.Get("coordinator.fragments");
  in->plan_cache_hits += d.Get("provider.plan_cache_hit");
  in->plan_cache_misses += d.Get("provider.plan_cache_miss");
  in->expr_compiles += d.Get("expr.compile");
  in->expr_cache_hits += d.Get("expr.compile_cache_hit");
  in->algebra_joins += d.Get("algebra.join");
  in->algebra_exts += d.Get("algebra.ext");
  in->spill_bytes += d.Get("spill.bytes_written");
  in->times.Harvest(nexus::telemetry::Spans());
  nexus::telemetry::ClearSpans();
}

void ProbeOptimizer(nexus::Cluster* cluster, const nexus::PlanPtr& plan,
                    int64_t actual_rows, std::vector<double>* qerrors) {
  nexus::telemetry::SpanGuard span(kCategoryBench, "bench.optimize");
  nexus::FederatedCatalog fed(cluster);
  nexus::OptimizerStats stats;
  if (!nexus::Optimize(plan, fed, nexus::OptimizerOptions{}, &stats).ok() ||
      stats.estimated_rows_root < 0) {
    return;
  }
  double est = std::max<double>(1, static_cast<double>(stats.estimated_rows_root));
  double act = std::max<double>(1, static_cast<double>(actual_rows));
  qerrors->push_back(std::max(est / act, act / est));
}

void Must(const nexus::Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "set-up failed at %s: %s\n", what, st.ToString().c_str());
  std::exit(1);
}

void FillPerLayer(const LayerInputs& in, RunResult* out) {
  const LayerTimes& t = in.times;
  double q = t.requests > 0 ? static_cast<double>(t.requests) : 1.0;
  auto per = [&](double v) { return v / q; };
  auto op = [&](std::initializer_list<const char*> keys) {
    double us = 0;
    for (const char* k : keys) {
      auto it = t.op_us.find(k);
      if (it != t.op_us.end()) us += it->second;
    }
    return us;
  };
  auto bench = [&](const char* probe) {
    auto it = t.bench_us.find(probe);
    auto n = t.bench_calls.find(probe);
    if (it == t.bench_us.end() || n == t.bench_calls.end() || n->second == 0) {
      return 0.0;
    }
    return it->second / static_cast<double>(n->second);
  };
  auto pct = [&](double us) {
    return t.request_us > 0 ? 100.0 * us / t.request_us : 0.0;
  };
  auto cat = [&](const char* c) {
    auto it = t.self_us_by_category.find(c);
    return it == t.self_us_by_category.end() ? 0.0 : it->second;
  };
  auto engine = [&](const char* fam) {
    auto it = t.engine_self_us.find(fam);
    return it == t.engine_self_us.end() ? 0.0 : it->second;
  };
  int64_t lookups = in.plan_cache_hits + in.plan_cache_misses;

  out->Set("frontend.parse_us", bench("parse"), "us/query");
  out->Set("optimizer.optimize_us", bench("optimize"), "us/query");
  out->Set("optimizer.root_qerror", Median(in.qerrors), "ratio");
  out->Set("service.queue_wait_pct",
           in.queue_latency_ms > 0 ? 100.0 * in.queue_wait_ms / in.queue_latency_ms : 0.0,
           "%");
  out->Set("service.queued_pct",
           in.queue_requests > 0
               ? 100.0 * static_cast<double>(in.queued) / in.queue_requests
               : 0.0,
           "%");
  out->Set("federation.coordinator_self_us", per(cat("coordinator")), "us/query");
  out->Set("federation.fragments_per_query", per(in.fragments), "count/query");
  out->Set("federation.messages_per_query", per(in.wire.messages), "count/query");
  out->Set("federation.plan_bytes_per_query", per(in.wire.plan_bytes), "B/query");
  out->Set("federation.data_bytes_per_query", per(in.wire.data_bytes), "B/query");
  out->Set("provider.plan_cache_hits", per(in.plan_cache_hits), "count/query");
  out->Set("provider.plan_cache_misses", per(in.plan_cache_misses), "count/query");
  out->Set("provider.plan_cache_hit_ratio",
           lookups > 0 ? static_cast<double>(in.plan_cache_hits) / lookups : 0.0,
           "ratio");
  out->Set("provider.server_ms", per(cat("server")) / 1e3, "ms/query");
  double mb = static_cast<double>(in.encoded_bytes) / 1e6;
  out->Set("core.encode_MBps", in.encode_ms > 0 ? mb / (in.encode_ms / 1e3) : 0.0,
           "MB/s");
  out->Set("core.decode_MBps", in.decode_ms > 0 ? mb / (in.decode_ms / 1e3) : 0.0,
           "MB/s");
  out->Set("core.wire_bytes_per_row",
           in.encoded_rows > 0
               ? static_cast<double>(in.encoded_bytes) / in.encoded_rows
               : 0.0,
           "B/row");
  out->Set("core.put_ms", in.put_ms, "ms");
  out->Set("core.append_rows_per_s",
           in.append_ms > 0 ? in.appended_rows / (in.append_ms / 1e3) : 0.0,
           "rows/s");
  out->Set("expr.compiles", per(in.expr_compiles), "count/query");
  out->Set("expr.program_cache_hits", per(in.expr_cache_hits), "count/query");
  out->Set("relational.filter_ms",
           per(op({"relational.select", "relational.extend", "relational.project"})) / 1e3,
           "ms/query");
  out->Set("relational.join_ms", per(op({"relational.join"})) / 1e3, "ms/query");
  out->Set("relational.aggregate_ms", per(op({"relational.aggregate"})) / 1e3,
           "ms/query");
  out->Set("relational.join_rows_per_s",
           t.join_engine_us > 0 ? t.join_rows / (t.join_engine_us / 1e6) : 0.0,
           "rows/s");
  double arraydb_us = 0;
  for (const auto& [k, us] : t.op_us) {
    if (k.rfind("arraydb.", 0) == 0) arraydb_us += us;
  }
  out->Set("arraydb.op_pct", pct(arraydb_us), "%");
  out->Set("algebra.join_calls", per(in.algebra_joins), "count/query");
  out->Set("algebra.ext_calls", per(in.algebra_exts), "count/query");
  out->Set("algebra.kernel_ms", per(t.algebra_kernel_us) / 1e3, "ms/query");
  out->Set("graph.engine_pct", pct(engine("graph")), "%");
  out->Set("linalg.engine_pct", pct(engine("la")), "%");
  out->Set("exec.refresh_incremental_pct",
           in.refreshes > 0 ? 100.0 * in.incremental_refreshes / in.refreshes : 0.0,
           "%");
  out->Set("exec.state_bytes", static_cast<double>(in.state_bytes), "B");
  out->Set("exec.spill_bytes", per(in.spill_bytes), "B/query");
  out->Set("common.morsels", per(in.morsels), "count/query");
  out->Set("common.morsel_busy_ms", per(t.morsel_busy_us) / 1e3, "ms/query");
  out->Set("telemetry.attributed_pct",
           t.request_us > 0 ? 100.0 * (1.0 - t.unattributed_us / t.request_us) : 0.0,
           "%");
  out->Set("telemetry.overhead_pct",
           in.untraced_p50_ms > 0
               ? 100.0 * (in.traced_p50_ms - in.untraced_p50_ms) / in.untraced_p50_ms
               : 0.0,
           "%");

  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "plan cache: %lld hits / %lld lookups (ratio base), qerror "
                "samples=%zu",
                static_cast<long long>(in.plan_cache_hits),
                static_cast<long long>(lookups), in.qerrors.size());
  out->Line(buf);
  std::snprintf(buf, sizeof(buf),
                "tracing overhead: untraced p50 %.4f ms vs traced p50 %.4f ms",
                in.untraced_p50_ms, in.traced_p50_ms);
  out->Line(buf);
  for (const std::string& line : t.Table()) out->Line(line);
}

}  // namespace perfbench

namespace perfbench {

void ProbeWire(const nexus::Dataset& d, int reps, LayerInputs* in) {
  for (int i = 0; i < reps; ++i) {
    Stopwatch enc;
    std::string wire = nexus::SerializeDatasetWire(d, nexus::WireFormat::kBinary);
    in->encode_ms += enc.ms();
    Stopwatch dec;
    auto back = nexus::ParseDatasetWire(wire);
    in->decode_ms += dec.ms();
    if (!back.ok() || back.ValueOrDie().num_rows() != d.num_rows()) {
      std::fprintf(stderr, "NXB1 round trip failed\n");
      std::exit(1);
    }
    in->encoded_bytes += static_cast<int64_t>(wire.size());
    in->encoded_rows += d.num_rows();
  }
}

}  // namespace perfbench
