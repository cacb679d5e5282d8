#ifndef E2GCL_TENSOR_CSR_H_
#define E2GCL_TENSOR_CSR_H_

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "tensor/matrix.h"

namespace e2gcl {

/// Sparse float32 matrix in compressed-sparse-row form. Used for
/// (normalized) adjacency matrices; the GCN propagation `A_n H` is a
/// SpMM against this type.
///
/// Every matrix is kept in canonical form: columns strictly ascending
/// within each row. A matrix may also carry its transpose, which is what
/// A^T products (the backward of ag::Spmm) gather from: a matrix marked
/// symmetric is its own transpose, any other gets a copy built once by
/// CarryTranspose() when the operand is made, never per product.
class CsrMatrix {
 public:
  CsrMatrix() : rows_(0), cols_(0) { row_ptr_.push_back(0); }

  /// Builds from COO triplets (row, col, value). Duplicate (row, col)
  /// entries are summed. Triplets may be in any order.
  static CsrMatrix FromCoo(std::int64_t rows, std::int64_t cols,
                           std::vector<std::tuple<std::int64_t, std::int64_t,
                                                  float>> triplets);

  /// Adopts CSR arrays that are already canonical: `row_ptr` holds
  /// rows + 1 non-decreasing offsets from 0 to nnz, and each row's
  /// columns are strictly ascending in [0, cols) — exactly what FromCoo
  /// would build, without its sort. Checked in O(rows + nnz).
  static CsrMatrix FromCsr(std::int64_t rows, std::int64_t cols,
                           std::vector<std::int64_t> row_ptr,
                           std::vector<std::int32_t> col_idx,
                           std::vector<float> values);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t nnz() const {
    return static_cast<std::int64_t>(col_idx_.size());
  }

  const std::vector<std::int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::int32_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  /// Number of stored entries in row r.
  std::int64_t RowNnz(std::int64_t r) const {
    return row_ptr_[r + 1] - row_ptr_[r];
  }

  /// Transposed copy by counting sort, O(nnz + rows + cols). The result
  /// is byte-identical to FromCoo over the swapped triplets. It carries
  /// no transpose of its own.
  CsrMatrix Transposed() const;

  /// Declares the matrix bit-exactly symmetric (A^T == A with values
  /// compared by ==), so it serves as its own transpose. The caller
  /// vouches for the property; NormalizedAdjacency of an undirected
  /// Graph has it by construction.
  void MarkSymmetric();

  /// Builds the transpose once and carries it with the matrix (copies
  /// share it).
  void CarryTranspose();

  /// The transpose this matrix carries: itself when marked symmetric,
  /// the CarryTranspose() copy otherwise, or nullptr when it has none.
  const CsrMatrix* transpose() const {
    return symmetric_ ? this : transpose_.get();
  }

  /// Dense copy (tests / tiny matrices only).
  Matrix ToDense() const;

 private:
  std::int64_t rows_;
  std::int64_t cols_;
  std::vector<std::int64_t> row_ptr_;
  std::vector<std::int32_t> col_idx_;
  std::vector<float> values_;
  bool symmetric_ = false;
  std::shared_ptr<const CsrMatrix> transpose_;
};

/// Dense result of sparse x dense: C = A * B with A sparse.
Matrix Spmm(const CsrMatrix& a, const Matrix& b);

/// C = A^T * B: the row-owned gather Spmm over the transpose `a`
/// carries, so it is bit-identical at any thread count. Aborts when `a`
/// carries no transpose (see CsrMatrix::transpose()).
Matrix SpmmTransposedA(const CsrMatrix& a, const Matrix& b);

}  // namespace e2gcl

#endif  // E2GCL_TENSOR_CSR_H_
