// The invariant the gather backward of ag::Spmm rests on: the GCN
// normalization of an undirected Graph is its own transpose bit for bit
// (values compared with ==, never a tolerance), on every kind of graph
// the trainers feed it. Plus a gradient check of ag::Spmm on an operand
// that is not symmetric and carries its transpose instead.

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "shard/graph_store.h"
#include "tensor/csr.h"
#include "test_util.h"

namespace e2gcl {
namespace {

namespace fs = std::filesystem;

void ExpectBitSymmetric(const CsrMatrix& a) {
  ASSERT_EQ(a.rows(), a.cols());
  EXPECT_EQ(a.transpose(), &a) << "not marked symmetric";
  const CsrMatrix t = a.Transposed();
  EXPECT_EQ(t.row_ptr(), a.row_ptr());
  EXPECT_EQ(t.col_idx(), a.col_idx());
  ASSERT_EQ(t.values().size(), a.values().size());
  for (std::size_t k = 0; k < a.values().size(); ++k) {
    ASSERT_TRUE(t.values()[k] == a.values()[k]) << "slot " << k;
  }
}

Graph Sbm(std::int64_t nodes, double avg_degree, std::uint64_t seed) {
  SbmSpec spec;
  spec.num_nodes = nodes;
  spec.num_classes = 5;
  spec.feature_dim = 16;
  spec.avg_degree = avg_degree;
  spec.informative_dims_per_class = 3;
  return GenerateSbm(spec, seed);
}

TEST(AdjacencySymmetry, SbmGraphs) {
  for (std::uint64_t seed : {1, 2, 3}) {
    for (double degree : {2.0, 6.0, 15.0}) {
      const Graph g = Sbm(700, degree, seed);
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " degree "
                                        << degree);
      ExpectBitSymmetric(NormalizedAdjacency(g));
      CsrMatrix plain = NormalizedAdjacency(g, /*add_self_loops=*/false);
      ExpectBitSymmetric(plain);
    }
  }
}

TEST(AdjacencySymmetry, GraphsWithIsolatedNodes) {
  // Nodes 0, 4 and 9 have no edge; 9 is also the last row.
  const Graph g = BuildGraph(
      10, {{1, 2}, {2, 3}, {1, 3}, {5, 6}, {6, 7}, {7, 8}, {8, 5}, {3, 5}});
  ExpectBitSymmetric(NormalizedAdjacency(g));
  ExpectBitSymmetric(NormalizedAdjacency(g, /*add_self_loops=*/false));
  ExpectBitSymmetric(NormalizedAdjacency(BuildGraph(4, {})));
}

std::vector<std::int64_t> Ball(const Graph& g, std::int64_t root) {
  return KHopNeighborhood(g, root, 2);
}

TEST(AdjacencySymmetry, InducedSubgraphBalls) {
  const Graph g = Sbm(900, 5.0, 4);
  for (std::int64_t root : {0, 17, 450, 899}) {
    SCOPED_TRACE(::testing::Message() << "root " << root);
    ExpectBitSymmetric(NormalizedAdjacency(InducedSubgraph(g, Ball(g, root))));
  }
}

TEST(AdjacencySymmetry, GraphStoreBalls) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("e2gcl_adjacency_symmetry_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  const Graph g = Sbm(900, 5.0, 5);
  ASSERT_TRUE(GraphStore::Write(dir, g));
  GraphStore store;
  ASSERT_TRUE(store.Open(dir));
  for (std::int64_t root : {3, 300, 777}) {
    SCOPED_TRACE(::testing::Message() << "root " << root);
    Graph ball;
    ASSERT_TRUE(store.LoadInducedSubgraph(Ball(g, root), &ball));
    ExpectBitSymmetric(NormalizedAdjacency(ball));
  }
  fs::remove_all(dir);
}

TEST(AdjacencySymmetry, RowNormalizedCarriesItsTranspose) {
  const Graph g = Sbm(300, 6.0, 6);
  const CsrMatrix a = RowNormalizedAdjacency(g);
  ASSERT_NE(a.transpose(), nullptr);
  EXPECT_NE(a.transpose(), &a);
  EXPECT_EQ(a.transpose()->col_idx(), a.Transposed().col_idx());
  EXPECT_EQ(a.transpose()->values(), a.Transposed().values());
}

TEST(AdjacencySymmetry, SpmmGradientOfRowNormalizedOperandIsDenseTranspose) {
  // Irregular degrees make D^{-1} A far from symmetric.
  const Graph g = BuildGraph(
      6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {4, 5}, {1, 2}});
  auto s = std::make_shared<const CsrMatrix>(RowNormalizedAdjacency(g));
  Rng rng(8);
  const Matrix x0 = Matrix::RandomNormal(6, 3, 0.0f, 1.0f, rng);
  const Matrix w = Matrix::RandomNormal(6, 3, 0.0f, 1.0f, rng);
  Var x = Var::Param(x0);
  ag::SumAll(ag::Hadamard(ag::Spmm(s, x), Var::Constant(w))).Backward();
  // d/dX sum(W o (S X)) = S^T W.
  const Matrix want = MatMul(Transpose(s->ToDense()), w);
  EXPECT_LT(MaxAbsDiff(x.grad(), want), 1e-5f);
  testing_util::CheckGradients({x0}, [&](const std::vector<Var>& p) {
    return ag::SumAll(ag::Hadamard(ag::Spmm(s, p[0]), Var::Constant(w)));
  });
}

TEST(AdjacencySymmetryDeathTest, DifferentiatedOperandNeedsATranspose) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto s = std::make_shared<const CsrMatrix>(
      CsrMatrix::FromCoo(2, 2, {{0, 1, 1.0f}}));
  EXPECT_DEATH(ag::Spmm(s, Var::Param(Matrix(2, 2, 1.0f))),
               "must carry its transpose");
  // Inference needs no transpose.
  EXPECT_EQ(ag::Spmm(s, Var::Constant(Matrix(2, 2, 1.0f))).rows(), 2);
}

}  // namespace
}  // namespace e2gcl
