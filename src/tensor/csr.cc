#include "tensor/csr.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "parallel/parallel_for.h"
#include "tensor/check.h"
#include "tensor/simd/simd.h"

namespace e2gcl {

CsrMatrix CsrMatrix::FromCoo(
    std::int64_t rows, std::int64_t cols,
    std::vector<std::tuple<std::int64_t, std::int64_t, float>> triplets) {
  E2GCL_CHECK(rows >= 0 && cols >= 0);
  // Column ids are stored as int32; a bare narrowing cast below would
  // silently corrupt indices for billion-column inputs.
  E2GCL_CHECK_MSG(
      cols <= std::numeric_limits<std::int32_t>::max(),
      "CsrMatrix column count %lld exceeds the int32 column-index range",
      static_cast<long long>(cols));
  std::sort(triplets.begin(), triplets.end(),
            [](const auto& a, const auto& b) {
              if (std::get<0>(a) != std::get<0>(b)) {
                return std::get<0>(a) < std::get<0>(b);
              }
              return std::get<1>(a) < std::get<1>(b);
            });
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  for (std::size_t i = 0; i < triplets.size(); ++i) {
    const auto [r, c, v] = triplets[i];
    E2GCL_CHECK_MSG(r >= 0 && r < rows && c >= 0 && c < cols,
                    "COO entry (%lld, %lld) out of bounds",
                    static_cast<long long>(r), static_cast<long long>(c));
    // Triplets are sorted, so duplicate coordinates are adjacent: sum them.
    if (i > 0 && std::get<0>(triplets[i - 1]) == r &&
        std::get<1>(triplets[i - 1]) == c) {
      m.values_.back() += v;
      continue;
    }
    m.col_idx_.push_back(static_cast<std::int32_t>(c));
    m.values_.push_back(v);
    m.row_ptr_[r + 1] += 1;
  }
  for (std::int64_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

CsrMatrix CsrMatrix::FromCsr(std::int64_t rows, std::int64_t cols,
                             std::vector<std::int64_t> row_ptr,
                             std::vector<std::int32_t> col_idx,
                             std::vector<float> values) {
  E2GCL_CHECK(rows >= 0 && cols >= 0);
  E2GCL_CHECK_MSG(
      cols <= std::numeric_limits<std::int32_t>::max(),
      "CsrMatrix column count %lld exceeds the int32 column-index range",
      static_cast<long long>(cols));
  E2GCL_CHECK(static_cast<std::int64_t>(row_ptr.size()) == rows + 1);
  E2GCL_CHECK(col_idx.size() == values.size());
  E2GCL_CHECK(row_ptr.front() == 0 &&
              row_ptr.back() == static_cast<std::int64_t>(col_idx.size()));
  for (std::int64_t r = 0; r < rows; ++r) {
    E2GCL_CHECK(row_ptr[r] <= row_ptr[r + 1]);
    for (std::int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      E2GCL_CHECK_MSG(col_idx[k] >= 0 && col_idx[k] < cols &&
                          (k == row_ptr[r] || col_idx[k - 1] < col_idx[k]),
                      "CSR row %lld is not strictly ascending in [0, %lld)",
                      static_cast<long long>(r), static_cast<long long>(cols));
    }
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

CsrMatrix CsrMatrix::Transposed() const {
  E2GCL_CHECK_MSG(rows_ <= std::numeric_limits<std::int32_t>::max(),
                  "CsrMatrix row count %lld exceeds the int32 column-index "
                  "range of its transpose",
                  static_cast<long long>(rows_));
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.assign(cols_ + 1, 0);
  for (std::int32_t c : col_idx_) t.row_ptr_[c + 1] += 1;
  for (std::int64_t c = 0; c < cols_; ++c) t.row_ptr_[c + 1] += t.row_ptr_[c];
  t.col_idx_.resize(col_idx_.size());
  t.values_.resize(values_.size());
  // Source rows are visited in ascending order, so each output row's
  // columns come out ascending: the canonical FromCoo layout.
  std::vector<std::int64_t> next(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::int64_t at = next[col_idx_[k]]++;
      t.col_idx_[at] = static_cast<std::int32_t>(r);
      t.values_[at] = values_[k];
    }
  }
  return t;
}

void CsrMatrix::MarkSymmetric() {
  E2GCL_CHECK_MSG(rows_ == cols_, "only a square matrix can be symmetric");
  symmetric_ = true;
  transpose_.reset();
}

void CsrMatrix::CarryTranspose() {
  symmetric_ = false;
  transpose_ = std::make_shared<const CsrMatrix>(Transposed());
}

Matrix CsrMatrix::ToDense() const {
  Matrix d(rows_, cols_);
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      d(r, col_idx_[k]) += values_[k];
    }
  }
  return d;
}

namespace {

/// Telemetry for one sparse-dense product: call count and touched byte
/// volume (nnz values + indices, gathered dense rows, output).
void RecordSpmmMetrics(const CsrMatrix& a, std::int64_t n) {
  if (!ObsEnabled()) return;
  static const Counter calls = Counter::Get("spmm.calls");
  static const Counter bytes = Counter::Get("spmm.bytes");
  calls.Increment();
  const std::int64_t nnz = a.nnz();
  bytes.Add(static_cast<std::uint64_t>(
      nnz * static_cast<std::int64_t>(sizeof(float) + sizeof(std::int32_t)) +
      (nnz + a.rows()) * n * static_cast<std::int64_t>(sizeof(float))));
}

}  // namespace

Matrix Spmm(const CsrMatrix& a, const Matrix& b) {
  E2GCL_CHECK_MSG(a.cols() == b.rows(), "spmm inner-dim mismatch");
  const std::int64_t n = b.cols();
  RecordSpmmMetrics(a, n);
  Matrix c(a.rows(), n);
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& vs = a.values();
  // Row-parallel gather form: each output row is owned by one chunk, so
  // the result is bit-identical to the serial kernel at any thread count.
  // The row kernel (register-blocked under AVX2, per-element identical to
  // one Axpy per edge) lives in tensor/simd/.
  const std::int64_t avg_nnz =
      a.rows() > 0 ? std::max<std::int64_t>(1, a.nnz() / a.rows()) : 1;
  ParallelFor(0, a.rows(), GrainForCost(avg_nnz * n),
              [&](std::int64_t rb, std::int64_t re) {
                simd::SpmmRows(rp.data(), ci.data(), vs.data(), b.data(),
                               c.data(), rb, re, n);
              });
  return c;
}

Matrix SpmmTransposedA(const CsrMatrix& a, const Matrix& b) {
  const CsrMatrix* at = a.transpose();
  E2GCL_CHECK_MSG(at != nullptr,
                  "spmm(A^T) operand carries no transpose: mark it "
                  "symmetric or carry one when the operand is made");
  return Spmm(*at, b);
}

}  // namespace e2gcl
