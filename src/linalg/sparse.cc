#include "linalg/sparse.h"

#include <algorithm>

#include "common/str_util.h"
#include "telemetry/telemetry.h"

namespace nexus {
namespace linalg {

Result<SparseMatrixCSR> SparseMatrixCSR::FromTriplets(
    int64_t rows, int64_t cols, std::vector<Triplet> triplets) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("negative sparse matrix shape");
  }
  for (const Triplet& t : triplets) {
    if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols) {
      return Status::IndexError(StrCat("triplet (", t.row, ", ", t.col,
                                       ") outside ", rows, "x", cols));
    }
  }
  std::sort(triplets.begin(), triplets.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  // Explicit zeros are *kept*: a 0-valued triplet (and duplicates summing to
  // exactly 0) stays a stored entry and flows through SpMV/SpGEMM like any
  // value (it contributes ±0.0 terms).
  SparseMatrixCSR m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(static_cast<size_t>(rows) + 1, 0);
  for (size_t i = 0; i < triplets.size();) {
    // Sum duplicates.
    size_t j = i + 1;
    double sum = triplets[i].value;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    m.col_idx_.push_back(triplets[i].col);
    m.values_.push_back(sum);
    m.row_ptr_[static_cast<size_t>(triplets[i].row) + 1]++;
    i = j;
  }
  for (size_t r = 1; r < m.row_ptr_.size(); ++r) m.row_ptr_[r] += m.row_ptr_[r - 1];
  return m;
}

Result<std::vector<double>> SparseMatrixCSR::SpMV(
    const std::vector<double>& x) const {
  if (static_cast<int64_t>(x.size()) != cols_) {
    return Status::InvalidArgument("SpMV shape mismatch");
  }
  std::vector<double> y(static_cast<size_t>(rows_), 0.0);
  for (int64_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (int64_t i = row_ptr_[static_cast<size_t>(r)];
         i < row_ptr_[static_cast<size_t>(r) + 1]; ++i) {
      s += values_[static_cast<size_t>(i)] *
           x[static_cast<size_t>(col_idx_[static_cast<size_t>(i)])];
    }
    y[static_cast<size_t>(r)] = s;
  }
  return y;
}

Result<SparseMatrixCSR> SparseMatrixCSR::SpGEMM(const SparseMatrixCSR& b) const {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "la.SpGEMM");
  span.AddCounter("nnz_left", static_cast<int64_t>(values_.size()));
  if (cols_ != b.rows_) {
    return Status::InvalidArgument("SpGEMM shape mismatch");
  }
  // Gustavson: per output row, scatter-accumulate into a dense workspace.
  std::vector<double> workspace(static_cast<size_t>(b.cols_), 0.0);
  std::vector<int64_t> touched;
  std::vector<Triplet> out;
  for (int64_t r = 0; r < rows_; ++r) {
    touched.clear();
    for (int64_t i = row_ptr_[static_cast<size_t>(r)];
         i < row_ptr_[static_cast<size_t>(r) + 1]; ++i) {
      int64_t k = col_idx_[static_cast<size_t>(i)];
      double av = values_[static_cast<size_t>(i)];
      for (int64_t j = b.row_ptr_[static_cast<size_t>(k)];
           j < b.row_ptr_[static_cast<size_t>(k) + 1]; ++j) {
        int64_t c = b.col_idx_[static_cast<size_t>(j)];
        if (workspace[static_cast<size_t>(c)] == 0.0) touched.push_back(c);
        workspace[static_cast<size_t>(c)] += av * b.values_[static_cast<size_t>(j)];
      }
    }
    std::sort(touched.begin(), touched.end());
    for (int64_t c : touched) {
      double v = workspace[static_cast<size_t>(c)];
      workspace[static_cast<size_t>(c)] = 0.0;
      if (v != 0.0) out.push_back(Triplet{r, c, v});
    }
  }
  return FromTriplets(rows_, b.cols_, std::move(out));
}

DenseMatrix SparseMatrixCSR::ToDense() const {
  DenseMatrix m(rows_, cols_);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t i = row_ptr_[static_cast<size_t>(r)];
         i < row_ptr_[static_cast<size_t>(r) + 1]; ++i) {
      m.Set(r, col_idx_[static_cast<size_t>(i)], values_[static_cast<size_t>(i)]);
    }
  }
  return m;
}

std::vector<Triplet> SparseMatrixCSR::ToTriplets() const {
  std::vector<Triplet> out;
  out.reserve(values_.size());
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t i = row_ptr_[static_cast<size_t>(r)];
         i < row_ptr_[static_cast<size_t>(r) + 1]; ++i) {
      out.push_back(Triplet{r, col_idx_[static_cast<size_t>(i)],
                            values_[static_cast<size_t>(i)]});
    }
  }
  return out;
}

}  // namespace linalg
}  // namespace nexus
