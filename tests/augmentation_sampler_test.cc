// Laws of the augmentation samplers. 2-hop candidates are drawn by
// uniform path index and rejection, with a scan for small
// neighbourhoods; feature perturbation compares 32-bit halves of engine
// draws with floor(p * 2^32); dropout places its drops by geometric
// skips. The reservoir the 2-hop draw replaced stays here as the
// reference for the candidate law on trees.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/scores.h"
#include "core/view_generator.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "tensor/rng.h"

namespace e2gcl {
namespace {

using EdgeList = std::vector<std::pair<std::int64_t, std::int64_t>>;

Graph WithFeatures(std::int64_t n, const EdgeList& edges) {
  Rng rng(7);
  return BuildGraph(n, edges, Matrix::RandomNormal(n, 8, 0, 1, rng));
}

Graph Star(std::int64_t leaves) {
  EdgeList edges;
  for (std::int64_t i = 1; i <= leaves; ++i) edges.emplace_back(0, i);
  return WithFeatures(leaves + 1, edges);
}

Graph Clique(std::int64_t n) {
  EdgeList edges;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  }
  return WithFeatures(n, edges);
}

/// Root 0 with `children` children, each with `grandchildren` leaves:
/// the root's 2-hop set is the children * grandchildren leaves, each
/// reached by exactly one path.
Graph Tree(std::int64_t children, std::int64_t grandchildren) {
  EdgeList edges;
  std::int64_t next = children + 1;
  for (std::int64_t c = 1; c <= children; ++c) {
    edges.emplace_back(0, c);
    for (std::int64_t k = 0; k < grandchildren; ++k) {
      edges.emplace_back(c, next++);
    }
  }
  return WithFeatures(next, edges);
}

Graph Sbm() {
  SbmSpec spec;
  spec.num_nodes = 300;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  spec.avg_degree = 9;
  spec.informative_dims_per_class = 4;
  return GenerateSbm(spec, 5);
}

/// Brute-force 2-hop set: x reached by u -> w -> x, x not u and not a
/// neighbour of u.
std::set<std::int64_t> TwoHopSet(const Graph& g, std::int64_t u) {
  const auto nb = g.Neighbors(u);
  const std::set<std::int64_t> one(nb.begin(), nb.end());
  std::set<std::int64_t> two;
  for (std::int32_t w : nb) {
    for (std::int32_t x : g.Neighbors(w)) {
      if (x != u && one.count(x) == 0) two.insert(x);
    }
  }
  return two;
}

std::uint64_t CounterNow(const char* name) {
  return MetricsRegistry::Get().Snapshot().counter(name);
}

/// u's candidate set as the sampler built it. With tau this large every
/// candidate is drawn, so the 1-hop per-node view of u holds u and its
/// distinct candidates; `built` counts the candidates with repeats.
struct Candidates {
  std::set<std::int64_t> nodes;
  std::uint64_t built = 0;
};

Candidates CandidatesOf(const ViewGenerator& gen, std::int64_t u,
                        std::int64_t cap, Rng& rng) {
  ViewConfig config;
  config.tau = 1e6f;
  config.max_two_hop_candidates = cap;
  config.allow_feature_perturbation = false;
  const std::uint64_t before = CounterNow("viewgen.edge_candidates");
  std::int64_t root_index = 0;
  std::vector<std::int64_t> nodes;
  gen.GeneratePerNodeView(u, 1, config, rng, &root_index, &nodes);
  Candidates c;
  c.built = CounterNow("viewgen.edge_candidates") - before;
  c.nodes.insert(nodes.begin(), nodes.end());
  c.nodes.erase(u);
  return c;
}

void ExpectCandidatesExact(const Graph& g, std::int64_t cap) {
  const ViewGenerator gen(g, 0.7f);
  Rng rng(3);
  for (std::int64_t u = 0; u < g.num_nodes; ++u) {
    SCOPED_TRACE(::testing::Message() << "node " << u << " cap " << cap);
    const auto nb = g.Neighbors(u);
    const std::set<std::int64_t> two = TwoHopSet(g, u);
    const Candidates c = CandidatesOf(gen, u, cap, rng);
    const std::uint64_t want =
        nb.size() + std::min<std::uint64_t>(cap, two.size());
    ASSERT_EQ(c.built, want);
    // Distinct: no candidate was built twice.
    ASSERT_EQ(c.nodes.size(), c.built);
    for (std::int32_t w : nb) ASSERT_EQ(c.nodes.count(w), 1u);
    for (std::int64_t x : c.nodes) {
      const bool neighbour =
          std::find(nb.begin(), nb.end(), static_cast<std::int32_t>(x)) !=
          nb.end();
      ASSERT_TRUE(neighbour || two.count(x) == 1) << "candidate " << x;
    }
  }
}

TEST(TwoHopCandidates, DistinctValidAndCountExactOnSbm) {
  const Graph g = Sbm();
  // cap 3 sends nearly every node down the path draw, cap 24 most of
  // them, cap 200 every node down the scan.
  for (std::int64_t cap : {3, 24, 200}) ExpectCandidatesExact(g, cap);
}

TEST(TwoHopCandidates, DistinctValidAndCountExactOnStar) {
  // The hub's paths all lead back to itself (empty 2-hop set, so the
  // draws are all rejected and the scan finds nothing); each leaf draws
  // the other leaves through the hub.
  ExpectCandidatesExact(Star(80), 24);
  ExpectCandidatesExact(Star(80), 100);
}

TEST(TwoHopCandidates, DistinctValidAndCountExactOnClique) {
  // Every path ends inside {u} + N_u: no candidates beyond the clique.
  ExpectCandidatesExact(Clique(12), 4);
  ExpectCandidatesExact(Clique(30), 24);
}

/// The reservoir the path draw replaced: one UniformInt per unmarked
/// 2-hop visit once the cap is full.
std::vector<std::int64_t> ReservoirTwoHop(const Graph& g, std::int64_t u,
                                          std::int64_t cap, Rng& rng) {
  std::vector<char> seen(g.num_nodes, 0);
  seen[u] = 1;
  for (std::int32_t w : g.Neighbors(u)) seen[w] = 1;
  std::vector<std::int64_t> out;
  std::int64_t count = 0;
  for (std::int32_t w : g.Neighbors(u)) {
    for (std::int32_t x : g.Neighbors(w)) {
      if (seen[x]) continue;
      ++count;
      if (static_cast<std::int64_t>(out.size()) < cap) {
        out.push_back(x);
        seen[x] = 1;
      } else {
        const std::int64_t j = rng.UniformInt(count);
        if (j < cap) {
          seen[x] = 1;
          out[j] = x;
        }
      }
    }
  }
  return out;
}

/// Inclusion frequencies of the root's 2-hop nodes, new sampler against
/// the reservoir, on a tree (one path per endpoint, so both are uniform
/// cap-subsets).
void ExpectTreeLawMatchesReservoir(std::int64_t children,
                                   std::int64_t grandchildren) {
  const Graph g = Tree(children, grandchildren);
  const std::int64_t cap = 24;
  const std::int64_t m = children * grandchildren;
  ASSERT_GT(m, cap);
  const ViewGenerator gen(g, 0.7f);
  const int trials = 3000;
  std::vector<double> got(g.num_nodes, 0.0), ref(g.num_nodes, 0.0);
  Rng rng(11), ref_rng(12);
  for (int t = 0; t < trials; ++t) {
    const Candidates c = CandidatesOf(gen, 0, cap, rng);
    ASSERT_EQ(c.built, static_cast<std::uint64_t>(children + cap));
    for (std::int64_t x : c.nodes) got[x] += 1.0 / trials;
    for (std::int64_t x : ReservoirTwoHop(g, 0, cap, ref_rng)) {
      ref[x] += 1.0 / trials;
    }
  }
  const double p = static_cast<double>(cap) / m;
  const double sigma = std::sqrt(p * (1.0 - p) / trials);
  for (std::int64_t x = children + 1; x < g.num_nodes; ++x) {
    EXPECT_NEAR(got[x], p, 5.0 * sigma) << "node " << x;
    EXPECT_NEAR(ref[x], p, 5.0 * sigma) << "node " << x;
    EXPECT_NEAR(got[x], ref[x], 5.0 * std::sqrt(2.0) * sigma) << "node " << x;
  }
}

TEST(TwoHopCandidates, TreeLawMatchesReservoirOnPathDraw) {
  // 4 * 21 = 84 paths > 2 * cap: the path-draw branch.
  ExpectTreeLawMatchesReservoir(4, 20);
}

TEST(TwoHopCandidates, TreeLawMatchesReservoirOnScan) {
  // 2 * 16 = 32 paths <= 2 * cap: the scan keeps a uniform 24 of 30.
  ExpectTreeLawMatchesReservoir(2, 15);
}

TEST(FeaturePerturbation, HitRateMatchesMeanProbability) {
  const Graph g = Sbm();
  const ImportanceScores scores(g, 0.7f);
  const ViewGenerator gen(g, 0.7f);
  const std::int64_t d = g.feature_dim();
  const int views = 20;
  // Importance-aware at two strengths (eta = 2 clamps many entries at
  // kProbabilityCap) and the uniform ablation.
  for (const bool importance : {true, false}) {
    for (const float eta : {0.4f, 2.0f}) {
      SCOPED_TRACE(::testing::Message()
                   << "importance " << importance << " eta " << eta);
      double mean = 0.0, var = 0.0;
      for (std::int64_t v = 0; v < g.num_nodes; ++v) {
        for (std::int64_t i = 0; i < d; ++i) {
          const double p =
              importance ? scores.PerturbProbability(v, i, eta)
                         : std::min(eta, ImportanceScores::kProbabilityCap);
          mean += p;
          var += p * (1.0 - p);
        }
      }
      ViewConfig config;
      config.eta = eta;
      config.importance_features = importance;
      config.allow_edge_addition = false;
      Rng rng(17);
      const std::uint64_t before = CounterNow("viewgen.features_perturbed");
      for (int k = 0; k < views; ++k) gen.GenerateGlobalView(config, rng);
      const double hits = static_cast<double>(
          CounterNow("viewgen.features_perturbed") - before);
      EXPECT_NEAR(hits, views * mean, 5.0 * std::sqrt(views * var) + 1.0);
    }
  }
}

// --- Dropout. ---------------------------------------------------------------

TEST(DropoutSampler, DropRateAndRunLengthLaw) {
  const std::int64_t n = 1 << 20;
  for (const float p : {0.1f, 0.5f}) {
    SCOPED_TRACE(::testing::Message() << "p " << p);
    Rng rng(23);
    const Var x = Var::Param(Matrix(1, n, 1.0f));
    const Var y = ag::Dropout(x, p, rng, /*training=*/true);
    const double q = 1.0 - static_cast<double>(1.0f - p);  // drop rate
    // Kept runs before each drop are Geometric(q): P(run = k) =
    // (1 - q)^k q.
    std::vector<double> runs(6, 0.0);
    std::int64_t dropped = 0, run = 0, num_runs = 0;
    double run_sum = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      if (y.value().data()[i] != 0.0f) {
        ++run;
        continue;
      }
      ++dropped;
      ++num_runs;
      run_sum += run;
      if (run < 6) runs[run] += 1.0;
      run = 0;
    }
    EXPECT_NEAR(static_cast<double>(dropped), q * n,
                5.0 * std::sqrt(n * q * (1.0 - q)));
    for (int k = 0; k < 6; ++k) {
      const double want = std::pow(1.0 - q, k) * q;
      const double sigma = std::sqrt(want * (1.0 - want) / num_runs);
      EXPECT_NEAR(runs[k] / num_runs, want, 5.0 * sigma) << "run " << k;
    }
    const double mean = (1.0 - q) / q;
    EXPECT_NEAR(run_sum / num_runs, mean,
                5.0 * std::sqrt((1.0 - q) / (q * q) / num_runs));
  }
}

TEST(DropoutSampler, NonFiniteValuesMatchDenseMaskBits) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float special[] = {inf, -inf, nan, 3e38f, -0.0f, 1.5f};
  const std::int64_t n = 4096;
  const float p = 0.3f;
  const float scale = 1.0f / (1.0f - p);
  Matrix xv(1, n), wv(1, n);
  for (std::int64_t i = 0; i < n; ++i) {
    xv.data()[i] = special[i % 6];
    wv.data()[i] = special[(i / 6) % 6];
  }
  // Same seed, all-ones input: reveals the mask the draws produce.
  Rng mask_rng(29), rng(29);
  const Var ones = Var::Param(Matrix(1, n, 1.0f));
  const Matrix mask = ag::Dropout(ones, p, mask_rng, true).value();
  const Var x = Var::Param(xv);
  const Var y = ag::Dropout(x, p, rng, true);
  // Upstream gradient w: d(sum(y * w))/dy = w, so x.grad = w * m,
  // accumulated into a zeroed gradient (0 + w * m).
  ag::SumAll(ag::Hadamard(y, Var::Constant(wv))).Backward();
  std::int64_t dropped = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float m = mask.data()[i] == 0.0f ? 0.0f : scale;
    dropped += m == 0.0f;
    const float want_y = xv.data()[i] * m;
    const float want_g = 0.0f + wv.data()[i] * m;
    const float got_y = y.value().data()[i];
    const float got_g = x.grad().data()[i];
    ASSERT_EQ(std::memcmp(&got_y, &want_y, sizeof(float)), 0) << "y " << i;
    ASSERT_EQ(std::memcmp(&got_g, &want_g, sizeof(float)), 0) << "grad " << i;
  }
  // Inf * 0 is NaN: the non-finite inputs at dropped slots propagate.
  EXPECT_GT(dropped, 0);
}

}  // namespace
}  // namespace e2gcl
