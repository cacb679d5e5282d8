#include "tensor/csr.h"

#include <cstring>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/rng.h"

namespace e2gcl {
namespace {

CsrMatrix SampleCsr() {
  // [[0, 2, 0], [1, 0, 3], [0, 0, 0], [4, 0, 0]]
  return CsrMatrix::FromCoo(4, 3,
                            {{0, 1, 2.0f}, {1, 0, 1.0f}, {1, 2, 3.0f},
                             {3, 0, 4.0f}});
}

TEST(CsrMatrix, EmptyHasZeroNnz) {
  CsrMatrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.nnz(), 0);
}

TEST(CsrMatrix, FromCooBasic) {
  CsrMatrix m = SampleCsr();
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 4);
  EXPECT_EQ(m.RowNnz(0), 1);
  EXPECT_EQ(m.RowNnz(1), 2);
  EXPECT_EQ(m.RowNnz(2), 0);
  EXPECT_EQ(m.RowNnz(3), 1);
}

TEST(CsrMatrix, DuplicateTripletsAreSummed) {
  CsrMatrix m = CsrMatrix::FromCoo(2, 2, {{0, 0, 1.0f}, {0, 0, 2.5f}});
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_FLOAT_EQ(m.ToDense()(0, 0), 3.5f);
}

TEST(CsrMatrix, UnsortedTripletsAccepted) {
  CsrMatrix m =
      CsrMatrix::FromCoo(3, 3, {{2, 1, 5.0f}, {0, 2, 1.0f}, {1, 0, 2.0f}});
  Matrix d = m.ToDense();
  EXPECT_FLOAT_EQ(d(2, 1), 5.0f);
  EXPECT_FLOAT_EQ(d(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(d(1, 0), 2.0f);
}

TEST(CsrMatrix, ToDenseMatchesLayout) {
  Matrix d = SampleCsr().ToDense();
  EXPECT_FLOAT_EQ(d(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(d(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(d(1, 2), 3.0f);
  EXPECT_FLOAT_EQ(d(3, 0), 4.0f);
  EXPECT_FLOAT_EQ(d(2, 2), 0.0f);
}

TEST(CsrMatrix, TransposedMatchesDenseTranspose) {
  CsrMatrix m = SampleCsr();
  EXPECT_LT(MaxAbsDiff(m.Transposed().ToDense(), Transpose(m.ToDense())),
            1e-7f);
}

// Reference transpose: FromCoo over the swapped triplets.
CsrMatrix TransposedViaCoo(const CsrMatrix& m) {
  std::vector<std::tuple<std::int64_t, std::int64_t, float>> triplets;
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    for (std::int64_t k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k) {
      triplets.emplace_back(m.col_idx()[k], r, m.values()[k]);
    }
  }
  return CsrMatrix::FromCoo(m.cols(), m.rows(), std::move(triplets));
}

void ExpectSameBytes(const CsrMatrix& got, const CsrMatrix& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.col_idx(), want.col_idx());
  ASSERT_EQ(got.values().size(), want.values().size());
  EXPECT_TRUE(got.values().empty() ||
              std::memcmp(got.values().data(), want.values().data(),
                          got.values().size() * sizeof(float)) == 0);
}

TEST(CsrMatrix, TransposedIsByteIdenticalToCooRoute) {
  Rng rng(3);
  // Random shapes and densities, including empty rows and columns.
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t rows = 1 + rng.UniformInt(60);
    const std::int64_t cols = 1 + rng.UniformInt(60);
    const std::int64_t nnz = rng.UniformInt(rows * cols / 3 + 1);
    std::vector<std::tuple<std::int64_t, std::int64_t, float>> trip;
    for (std::int64_t i = 0; i < nnz; ++i) {
      trip.emplace_back(rng.UniformInt(rows), rng.UniformInt(cols),
                        rng.Normal());
    }
    const CsrMatrix m = CsrMatrix::FromCoo(rows, cols, std::move(trip));
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    ExpectSameBytes(m.Transposed(), TransposedViaCoo(m));
  }
  ExpectSameBytes(CsrMatrix::FromCoo(5, 3, {}).Transposed(),
                  TransposedViaCoo(CsrMatrix::FromCoo(5, 3, {})));
  ExpectSameBytes(CsrMatrix().Transposed(), TransposedViaCoo(CsrMatrix()));
  const CsrMatrix sample = SampleCsr();  // row 2 is empty
  ExpectSameBytes(sample.Transposed(), TransposedViaCoo(sample));
}

TEST(CsrMatrix, FromCsrAdoptsCanonicalArrays) {
  const CsrMatrix want = SampleCsr();
  const CsrMatrix got = CsrMatrix::FromCsr(
      4, 3, want.row_ptr(), want.col_idx(), want.values());
  ExpectSameBytes(got, want);
}

TEST(CsrMatrixDeathTest, FromCsrRejectsUnsortedOrOutOfRangeColumns) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(CsrMatrix::FromCsr(1, 3, {0, 2}, {2, 1}, {1.0f, 1.0f}),
               "not strictly ascending");
  EXPECT_DEATH(CsrMatrix::FromCsr(1, 3, {0, 2}, {1, 1}, {1.0f, 1.0f}),
               "not strictly ascending");
  EXPECT_DEATH(CsrMatrix::FromCsr(1, 3, {0, 1}, {3}, {1.0f}),
               "not strictly ascending");
}

TEST(CsrMatrix, CarriedTransposeIsSharedAndSymmetricIsSelf) {
  CsrMatrix m = SampleCsr();
  EXPECT_EQ(m.transpose(), nullptr);
  m.CarryTranspose();
  ASSERT_NE(m.transpose(), nullptr);
  ExpectSameBytes(*m.transpose(), m.Transposed());
  const CsrMatrix copy = m;
  EXPECT_EQ(copy.transpose(), m.transpose());

  CsrMatrix s = CsrMatrix::FromCoo(2, 2, {{0, 1, 0.5f}, {1, 0, 0.5f}});
  s.MarkSymmetric();
  EXPECT_EQ(s.transpose(), &s);
}

TEST(CsrMatrixDeathTest, SpmmTransposedANeedsACarriedTranspose) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const CsrMatrix a = SampleCsr();
  const Matrix b(4, 2);
  EXPECT_DEATH(SpmmTransposedA(a, b), "carries no transpose");
}

TEST(Spmm, MatchesDenseProduct) {
  CsrMatrix a = SampleCsr();
  Rng rng(1);
  Matrix b = Matrix::RandomNormal(3, 5, 0, 1, rng);
  Matrix sparse = Spmm(a, b);
  Matrix dense = MatMul(a.ToDense(), b);
  EXPECT_LT(MaxAbsDiff(sparse, dense), 1e-5f);
}

TEST(Spmm, TransposedAMatchesDense) {
  CsrMatrix a = SampleCsr();
  a.CarryTranspose();
  Rng rng(2);
  Matrix b = Matrix::RandomNormal(4, 6, 0, 1, rng);
  Matrix sparse = SpmmTransposedA(a, b);
  Matrix dense = MatMul(Transpose(a.ToDense()), b);
  EXPECT_LT(MaxAbsDiff(sparse, dense), 1e-5f);
}

TEST(Spmm, EmptyRowsGiveZeroOutput) {
  CsrMatrix a = CsrMatrix::FromCoo(3, 2, {});
  Matrix b = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix c = Spmm(a, b);
  EXPECT_EQ(c.rows(), 3);
  for (std::int64_t i = 0; i < c.size(); ++i) EXPECT_EQ(c.data()[i], 0.0f);
}

// Randomized property check across shapes and densities.
class SpmmRandom : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(SpmmRandom, AgreesWithDenseReference) {
  const auto [rows, cols, nnz] = GetParam();
  Rng rng(rows * 31 + cols * 7 + nnz);
  std::vector<std::tuple<std::int64_t, std::int64_t, float>> trip;
  for (int i = 0; i < nnz; ++i) {
    trip.emplace_back(rng.UniformInt(rows), rng.UniformInt(cols),
                      rng.Normal());
  }
  CsrMatrix a = CsrMatrix::FromCoo(rows, cols, trip);
  a.CarryTranspose();
  Matrix b = Matrix::RandomNormal(cols, 4, 0, 1, rng);
  EXPECT_LT(MaxAbsDiff(Spmm(a, b), MatMul(a.ToDense(), b)), 1e-4f);
  Matrix c = Matrix::RandomNormal(rows, 4, 0, 1, rng);
  EXPECT_LT(
      MaxAbsDiff(SpmmTransposedA(a, c), MatMul(Transpose(a.ToDense()), c)),
      1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpmmRandom,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{5, 5, 10},
                      std::tuple{10, 3, 25}, std::tuple{3, 10, 25},
                      std::tuple{20, 20, 100}));


TEST(CsrMatrixDeathTest, FromCooRejectsColumnCountBeyondInt32) {
  // Column ids are stored as int32; before the explicit guard, a bare
  // static_cast silently wrapped ids >= 2^31 into negative indices.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(CsrMatrix::FromCoo(1, (std::int64_t{1} << 31), {}),
               "int32");
}

}  // namespace
}  // namespace e2gcl
