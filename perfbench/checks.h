// Output checkers of the benchmark. Each compares what the program returned
// against a computation the benchmark makes apart from the program, with
// plain loops over the generated inputs. A checker returns "" when the
// output is correct and a one-line description of the first difference
// otherwise.
#ifndef NEXUS_PERFBENCH_CHECKS_H_
#define NEXUS_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "types/dataset.h"

namespace perfbench {

/// group key → (sum, count), exact in int64.
using GroupTotals = std::map<int64_t, std::pair<int64_t, int64_t>>;
/// (i, j) → value of a 2-d array cell.
using Cells = std::map<std::pair<int64_t, int64_t>, double>;
/// node → rank.
using Ranks = std::map<int64_t, double>;

struct EdgeList {
  std::vector<int64_t> src, dst;
};

/// Sparse matrix as (row, col, value) triplets.
struct Triplets {
  int64_t rows = 0, cols = 0;
  std::vector<int64_t> r, c;
  std::vector<double> v;
};

// Extraction of program outputs into the plain forms above. On a schema
// mismatch they return false and describe it in *err.
bool ToGroups(const nexus::Dataset& d, const std::string& key,
              const std::string& sum, const std::string& count,
              GroupTotals* out, std::string* err);
bool ToIntRows(const nexus::Dataset& d, const std::vector<std::string>& cols,
               std::vector<std::vector<int64_t>>* out, std::string* err);
bool ToCells(const nexus::Dataset& d, const std::string& i, const std::string& j,
             const std::string& value, Cells* out, std::string* err);
bool ToRanks(const nexus::Dataset& d, const std::string& node,
             const std::string& rank, Ranks* out, std::string* err);

std::string CompareGroups(const GroupTotals& expected, const GroupTotals& actual,
                          const std::string& what);
std::string CompareRows(const std::vector<std::vector<int64_t>>& expected,
                        const std::vector<std::vector<int64_t>>& actual,
                        const std::string& what);
std::string CompareCells(const Cells& expected, const Cells& actual,
                         const std::string& what);

/// Ranks are non-negative, sum to 1 (within 1e-9), cover exactly the
/// graph's nodes, and one further power iteration computed here moves them
/// by no more than `epsilon` in L1.
std::string CheckPageRank(const EdgeList& edges, const Ranks& ranks,
                          double damping, double epsilon);
/// L1 distance between two rank vectors is at most `tolerance`.
std::string CompareRanks(const Ranks& a, const Ranks& b, double tolerance);

/// Plain dense-accumulator product of two triplet matrices.
Cells MultiplyTriplets(const Triplets& a, const Triplets& b);

}  // namespace perfbench

#endif  // NEXUS_PERFBENCH_CHECKS_H_
