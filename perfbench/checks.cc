#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

namespace {

bool Columns(const nexus::Dataset& d, const std::vector<std::string>& names,
             std::vector<const nexus::Column*>* cols, nexus::TablePtr* keep,
             std::string* err) {
  auto table = d.AsTable();
  if (!table.ok()) {
    *err = table.status().ToString();
    return false;
  }
  *keep = table.ValueOrDie();
  for (const std::string& n : names) {
    auto c = (*keep)->ColumnByName(n);
    if (!c.ok()) {
      *err = "missing column " + n;
      return false;
    }
    cols->push_back(c.ValueOrDie());
  }
  return true;
}

int64_t IntAt(const nexus::Column& c, int64_t i) {
  return c.type() == nexus::DataType::kInt64
             ? c.ints()[static_cast<size_t>(i)]
             : static_cast<int64_t>(c.NumericAt(i));
}

std::string Fmt(const char* fmt, double a, double b, double c = 0) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

}  // namespace

bool ToGroups(const nexus::Dataset& d, const std::string& key,
              const std::string& sum, const std::string& count,
              GroupTotals* out, std::string* err) {
  std::vector<const nexus::Column*> c;
  nexus::TablePtr keep;
  if (!Columns(d, {key, sum, count}, &c, &keep, err)) return false;
  out->clear();
  for (int64_t r = 0; r < keep->num_rows(); ++r) {
    if (c[0]->IsNull(r) || c[1]->IsNull(r) || c[2]->IsNull(r)) {
      *err = "null in group output";
      return false;
    }
    int64_t k = IntAt(*c[0], r);
    if (out->count(k) != 0) {
      *err = "duplicate group " + std::to_string(k);
      return false;
    }
    (*out)[k] = {IntAt(*c[1], r), IntAt(*c[2], r)};
  }
  return true;
}

bool ToIntRows(const nexus::Dataset& d, const std::vector<std::string>& cols,
               std::vector<std::vector<int64_t>>* out, std::string* err) {
  std::vector<const nexus::Column*> c;
  nexus::TablePtr keep;
  if (!Columns(d, cols, &c, &keep, err)) return false;
  out->assign(static_cast<size_t>(keep->num_rows()), {});
  for (int64_t r = 0; r < keep->num_rows(); ++r) {
    for (const nexus::Column* col : c) {
      (*out)[static_cast<size_t>(r)].push_back(IntAt(*col, r));
    }
  }
  return true;
}

bool ToCells(const nexus::Dataset& d, const std::string& i, const std::string& j,
             const std::string& value, Cells* out, std::string* err) {
  std::vector<const nexus::Column*> c;
  nexus::TablePtr keep;
  if (!Columns(d, {i, j, value}, &c, &keep, err)) return false;
  out->clear();
  for (int64_t r = 0; r < keep->num_rows(); ++r) {
    (*out)[{IntAt(*c[0], r), IntAt(*c[1], r)}] = c[2]->NumericAt(r);
  }
  return true;
}

bool ToRanks(const nexus::Dataset& d, const std::string& node,
             const std::string& rank, Ranks* out, std::string* err) {
  std::vector<const nexus::Column*> c;
  nexus::TablePtr keep;
  if (!Columns(d, {node, rank}, &c, &keep, err)) return false;
  out->clear();
  for (int64_t r = 0; r < keep->num_rows(); ++r) {
    (*out)[IntAt(*c[0], r)] = c[1]->NumericAt(r);
  }
  return true;
}

std::string CompareGroups(const GroupTotals& expected, const GroupTotals& actual,
                          const std::string& what) {
  if (expected.size() != actual.size()) {
    return what + ": " + std::to_string(actual.size()) + " groups, expected " +
           std::to_string(expected.size());
  }
  for (const auto& [k, v] : expected) {
    auto it = actual.find(k);
    if (it == actual.end()) return what + ": missing group " + std::to_string(k);
    if (it->second != v) {
      return what + ": group " + std::to_string(k) + " has sum " +
             std::to_string(it->second.first) + " count " +
             std::to_string(it->second.second) + ", expected " +
             std::to_string(v.first) + " / " + std::to_string(v.second);
    }
  }
  return "";
}

std::string CompareRows(const std::vector<std::vector<int64_t>>& expected,
                        const std::vector<std::vector<int64_t>>& actual,
                        const std::string& what) {
  if (expected.size() != actual.size()) {
    return what + ": " + std::to_string(actual.size()) + " rows, expected " +
           std::to_string(expected.size());
  }
  for (size_t r = 0; r < expected.size(); ++r) {
    if (expected[r] != actual[r]) {
      return what + ": row " + std::to_string(r) + " differs";
    }
  }
  return "";
}

std::string CompareCells(const Cells& expected, const Cells& actual,
                         const std::string& what) {
  if (expected.size() != actual.size()) {
    return what + ": " + std::to_string(actual.size()) + " cells, expected " +
           std::to_string(expected.size());
  }
  for (const auto& [k, v] : expected) {
    auto it = actual.find(k);
    if (it == actual.end()) {
      return what + ": missing cell (" + std::to_string(k.first) + "," +
             std::to_string(k.second) + ")";
    }
    if (it->second != v) {
      return what + Fmt(": cell value %.17g, expected %.17g", it->second, v);
    }
  }
  return "";
}

std::string CheckPageRank(const EdgeList& edges, const Ranks& ranks,
                          double damping, double epsilon) {
  std::set<int64_t> nodes(edges.src.begin(), edges.src.end());
  nodes.insert(edges.dst.begin(), edges.dst.end());
  if (nodes.size() != ranks.size()) {
    return "pagerank: " + std::to_string(ranks.size()) + " ranks for " +
           std::to_string(nodes.size()) + " nodes";
  }
  std::map<int64_t, int64_t> degree;
  for (int64_t s : edges.src) ++degree[s];
  double total = 0, dangling = 0;
  for (const auto& [node, r] : ranks) {
    if (nodes.count(node) == 0) return "pagerank: rank for unknown node";
    if (!(r >= 0)) return "pagerank: negative rank";
    total += r;
    if (degree.count(node) == 0) dangling += r;
  }
  if (std::fabs(total - 1.0) > 1e-9) {
    return Fmt("pagerank: ranks sum to %.12f", total, 0);
  }
  double n = static_cast<double>(ranks.size());
  double base = (1.0 - damping) / n + damping * dangling / n;
  Ranks next;
  for (const auto& [node, r] : ranks) next[node] = base;
  for (size_t e = 0; e < edges.src.size(); ++e) {
    int64_t u = edges.src[e];
    next[edges.dst[e]] +=
        damping * ranks.at(u) / static_cast<double>(degree.at(u));
  }
  double moved = 0;
  for (const auto& [node, r] : ranks) moved += std::fabs(next[node] - r);
  if (moved > epsilon) {
    return Fmt("pagerank: one more power step moves ranks by %.3e > eps %.3e",
               moved, epsilon);
  }
  return "";
}

std::string CompareRanks(const Ranks& a, const Ranks& b, double tolerance) {
  if (a.size() != b.size()) return "rank vectors differ in length";
  double l1 = 0;
  for (const auto& [node, r] : a) {
    auto it = b.find(node);
    if (it == b.end()) return "rank vectors differ in nodes";
    l1 += std::fabs(r - it->second);
  }
  if (l1 > tolerance) {
    return Fmt("native and Iterate ranks differ by L1 %.3e > %.3e", l1, tolerance);
  }
  return "";
}

Cells MultiplyTriplets(const Triplets& a, const Triplets& b) {
  // Rows of B by row index, then a dense accumulator per row of A.
  std::vector<std::vector<std::pair<int64_t, double>>> brows(
      static_cast<size_t>(b.rows));
  for (size_t e = 0; e < b.r.size(); ++e) {
    brows[static_cast<size_t>(b.r[e])].push_back({b.c[e], b.v[e]});
  }
  std::vector<std::vector<std::pair<int64_t, double>>> arows(
      static_cast<size_t>(a.rows));
  for (size_t e = 0; e < a.r.size(); ++e) {
    arows[static_cast<size_t>(a.r[e])].push_back({a.c[e], a.v[e]});
  }
  Cells out;
  std::vector<double> acc(static_cast<size_t>(b.cols));
  std::vector<uint8_t> hit(static_cast<size_t>(b.cols));
  for (int64_t i = 0; i < a.rows; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0);
    std::fill(hit.begin(), hit.end(), 0);
    for (auto [k, av] : arows[static_cast<size_t>(i)]) {
      for (auto [j, bv] : brows[static_cast<size_t>(k)]) {
        acc[static_cast<size_t>(j)] += av * bv;
        hit[static_cast<size_t>(j)] = 1;
      }
    }
    for (int64_t j = 0; j < b.cols; ++j) {
      if (hit[static_cast<size_t>(j)] && acc[static_cast<size_t>(j)] != 0.0) {
        out[{i, j}] = acc[static_cast<size_t>(j)];
      }
    }
  }
  return out;
}

}  // namespace perfbench
