// Oracle for the greedy coreset selector. SelectCoreset skips relaxed
// passes over clusters whose every node is already covered below the
// pass threshold; ReferenceSelectCoreset below is the full-scan greedy
// loop without that skip. The two must agree bit for bit — nodes,
// weights and representativity — at every thread count.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/kmeans.h"
#include "core/node_selector.h"
#include "core/raw_aggregation.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace e2gcl {
namespace {

constexpr std::int64_t kSumRowFloor = 512;

/// Alg. 2 with every relaxed cross-cluster pass scanned in full.
SelectionResult ReferenceSelectCoreset(const Matrix& r,
                                       const SelectorConfig& config,
                                       Rng& rng) {
  const std::int64_t n = r.rows();
  const std::int64_t k = config.budget;
  KMeansOptions km_opts;
  km_opts.num_clusters = std::min<std::int64_t>(config.num_clusters, n);
  km_opts.max_iters = config.kmeans_iters;
  KMeansResult km = KMeans(r, km_opts, rng);
  const std::int64_t nc = km.centers.rows();

  float center_spread = 0.0f;
  for (std::int64_t i = 0; i < nc; ++i) {
    for (std::int64_t j = i + 1; j < nc; ++j) {
      center_spread =
          std::max(center_spread, RowDistance(km.centers, i, km.centers, j));
    }
  }
  float max_radius = 0.0f;
  for (float rad : km.max_radius) max_radius = std::max(max_radius, rad);
  const float d_init = center_spread + 2.0f * max_radius + 1.0f;
  std::vector<float> best_dist(n, d_init);
  std::vector<char> selected_mask(n, 0);

  std::int64_t ns = config.sample_size;
  if (config.auto_sample_size) {
    const double theory =
        std::ceil(static_cast<double>(n) / static_cast<double>(k) *
                  std::log(1.0 / std::max(config.approx_eps, 1e-6)));
    ns = std::min<std::int64_t>(
        config.sample_size,
        std::max<std::int64_t>(config.min_sample_size,
                               static_cast<std::int64_t>(theory)));
  }
  ns = std::max<std::int64_t>(1, std::min(ns, n));

  SelectionResult result;
  std::vector<float> cdist(nc);
  while (static_cast<std::int64_t>(result.nodes.size()) < k) {
    std::vector<std::int64_t> pool;
    std::int64_t guard = 0;
    while (static_cast<std::int64_t>(pool.size()) < ns && guard++ < ns * 30) {
      const std::int64_t c = rng.UniformInt(n);
      if (!selected_mask[c]) pool.push_back(c);
    }
    if (pool.empty()) {
      for (std::int64_t v = 0;
           v < n && static_cast<std::int64_t>(pool.size()) < ns; ++v) {
        if (!selected_mask[v]) pool.push_back(v);
      }
    }
    if (pool.empty()) break;
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

    double best_gain = -1.0;
    std::int64_t best_u = pool.front();
    for (std::int64_t u : pool) {
      const std::int64_t cu = km.assignment[u];
      for (std::int64_t j = 0; j < nc; ++j) {
        cdist[j] = RowDistance(km.centers, j, r, u);
      }
      double gain = 0.0;
      for (std::int64_t v : km.clusters[cu]) {
        const float d = RowDistance(r, v, r, u);
        if (d < best_dist[v]) gain += best_dist[v] - d;
      }
      for (std::int64_t j = 0; j < nc; ++j) {
        if (j == cu) continue;
        const float t = cdist[j] + km.max_radius[j];
        for (std::int64_t v : km.clusters[j]) {
          if (best_dist[v] > t) gain += best_dist[v] - t;
        }
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_u = u;
      }
    }

    selected_mask[best_u] = 1;
    result.nodes.push_back(best_u);
    const std::int64_t cu = km.assignment[best_u];
    for (std::int64_t j = 0; j < nc; ++j) {
      cdist[j] = RowDistance(km.centers, j, r, best_u);
    }
    for (std::int64_t v : km.clusters[cu]) {
      best_dist[v] = std::min(best_dist[v], RowDistance(r, v, r, best_u));
    }
    for (std::int64_t j = 0; j < nc; ++j) {
      if (j == cu) continue;
      const float t = cdist[j] + km.max_radius[j];
      for (std::int64_t v : km.clusters[j]) {
        best_dist[v] = std::min(best_dist[v], t);
      }
    }
  }

  // Line 10, with the selector's chunked (thread-invariant) summation.
  const std::int64_t ks = static_cast<std::int64_t>(result.nodes.size());
  result.weights.assign(ks, 0.0f);
  std::vector<std::int64_t> sel_index(n, -1);
  for (std::int64_t i = 0; i < ks; ++i) sel_index[result.nodes[i]] = i;
  std::vector<std::vector<std::int64_t>> sel_by_cluster(nc);
  for (std::int64_t u : result.nodes) {
    sel_by_cluster[km.assignment[u]].push_back(u);
  }
  std::vector<std::int64_t> best_cross(nc, -1);
  std::vector<float> best_cross_dist(nc, std::numeric_limits<float>::max());
  for (std::int64_t j = 0; j < nc; ++j) {
    for (std::int64_t u : result.nodes) {
      if (km.assignment[u] == j) continue;
      const float d = RowDistance(km.centers, j, r, u);
      if (d < best_cross_dist[j]) {
        best_cross_dist[j] = d;
        best_cross[j] = u;
      }
    }
  }
  const std::int64_t w_grain = std::max(kSumRowFloor, GrainForCost(r.cols()));
  double objective = 0.0;
  for (std::int64_t vb = 0; vb < n; vb += w_grain) {
    const std::int64_t ve = std::min(n, vb + w_grain);
    double chunk_objective = 0.0;
    for (std::int64_t v = vb; v < ve; ++v) {
      const std::int64_t cv = km.assignment[v];
      float best = std::numeric_limits<float>::max();
      std::int64_t rep = -1;
      for (std::int64_t u : sel_by_cluster[cv]) {
        const float d = RowDistance(r, v, r, u);
        if (d < best) {
          best = d;
          rep = u;
        }
      }
      if (best_cross[cv] >= 0) {
        const float d = best_cross_dist[cv] + km.max_radius[cv];
        if (d < best) {
          best = d;
          rep = best_cross[cv];
        }
      }
      if (rep < 0) rep = result.nodes.front();
      result.weights[sel_index[rep]] += 1.0f;
      chunk_objective +=
          best == std::numeric_limits<float>::max() ? 0.0 : best;
    }
    objective += chunk_objective;
  }
  result.representativity = objective;
  return result;
}

struct Case {
  Matrix r;
  SelectorConfig config;
  std::uint64_t seed;
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  const std::uint64_t seeds[] = {1, 2, 3, 11};
  for (std::uint64_t seed : seeds) {
    // Aggregated SBM features: the clustered setting of the paper, large
    // enough for several objective chunks.
    Graph g = GenerateSbm({.num_nodes = 1500, .num_classes = 6,
                           .feature_dim = 24, .avg_degree = 6,
                           .informative_dims_per_class = 4},
                          seed);
    Case c{RawAggregation(g, 2), {}, seed};
    c.config.budget = 150;
    c.config.num_clusters = 20;
    cases.push_back(std::move(c));
  }
  // Unclustered noise, explicit sample size and a budget close to |V|.
  Rng rng(7);
  Case noise{Matrix::RandomNormal(400, 16, 0.0f, 1.0f, rng), {}, 5};
  noise.config.budget = 320;
  noise.config.num_clusters = 9;
  noise.config.sample_size = 17;
  noise.config.auto_sample_size = false;
  cases.push_back(std::move(noise));
  return cases;
}

void ExpectSameSelection(const SelectionResult& got,
                         const SelectionResult& want) {
  EXPECT_EQ(got.nodes, want.nodes);
  EXPECT_EQ(got.weights, want.weights);
  EXPECT_EQ(got.representativity, want.representativity);
}

TEST(SelectorOracle, MatchesFullScanReferenceAtAnyThreadCount) {
  for (const Case& c : Cases()) {
    SetNumThreads(1);
    Rng ref_rng(c.seed);
    const SelectionResult want =
        ReferenceSelectCoreset(c.r, c.config, ref_rng);
    for (int threads : {1, 2, 7}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << c.seed << ", " << threads << " threads");
      SetNumThreads(threads);
      Rng rng(c.seed);
      ExpectSameSelection(SelectCoreset(c.r, c.config, rng), want);
      // Both draw the same candidates, so the RNG streams end together.
      EXPECT_EQ(rng.SerializeState(), ref_rng.SerializeState());
    }
  }
  SetNumThreads(1);
}

TEST(SelectorOracle, CoveredClustersAreSkipped) {
  const Case c = std::move(Cases().front());
  MetricsRegistry::Get().ResetValuesForTest();
  Rng rng(c.seed);
  const SelectionResult res = SelectCoreset(c.r, c.config, rng);
  const MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  const std::uint64_t scanned =
      snap.counter("selector.relaxed_clusters_scanned");
  // A full scan visits nc - 1 other clusters per candidate and per
  // commit.
  const std::uint64_t passes =
      (snap.counter("selector.candidates_evaluated") + res.nodes.size()) *
      static_cast<std::uint64_t>(c.config.num_clusters - 1);
  EXPECT_GT(scanned, 0u);
  EXPECT_LT(scanned * 4, passes) << scanned << " of " << passes;
}

}  // namespace
}  // namespace e2gcl
