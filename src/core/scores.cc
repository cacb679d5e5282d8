#include "core/scores.h"

#include <algorithm>
#include <cmath>

#include "tensor/check.h"

namespace e2gcl {

ImportanceScores::ImportanceScores(const Graph& g, float beta)
    : graph_(&g), beta_(beta) {
  E2GCL_CHECK(beta > 0.0f && beta < 1.0f);
  E2GCL_CHECK(!g.features.empty());
  centrality_ = DegreeCentrality(g);
  for (float c : centrality_) max_centrality_ = std::max(max_centrality_, c);

  // sim_constant_ = max over existing edges of ||x_v - x_u||. Every CSR
  // slot keeps its distance, which then becomes its existing-edge score.
  neighbor_scores_.resize(g.col.size());
  for (std::int64_t v = 0; v < g.num_nodes; ++v) {
    for (std::int64_t k = g.row_ptr[v]; k < g.row_ptr[v + 1]; ++k) {
      const std::int32_t u = g.col[k];
      neighbor_scores_[k] = RowDistance(g.features, v, g.features, u);
      if (u > v) sim_constant_ = std::max(sim_constant_, neighbor_scores_[k]);
    }
  }
  for (std::size_t k = 0; k < neighbor_scores_.size(); ++k) {
    neighbor_scores_[k] =
        ScoreFromDistance(neighbor_scores_[k], g.col[k], /*is_neighbor=*/true);
  }

  // Global feature importance w^f_i = sum_v phi_c(v) |x_v[i]|.
  const std::int64_t d = g.feature_dim();
  feature_importance_.assign(d, 0.0f);
  for (std::int64_t v = 0; v < g.num_nodes; ++v) {
    const float phi = centrality_[v];
    const float* row = g.features.RowPtr(v);
    for (std::int64_t i = 0; i < d; ++i) {
      feature_importance_[i] += phi * std::fabs(row[i]);
    }
  }
  // Log-scale like GCA: raw frequency counts are heavy-tailed.
  for (float& w : feature_importance_) w = std::log1p(w);

  // dim_term(i) = (w_max - w_i) / (w_max - w_mean): mean 1 over dims,
  // smaller for globally important (frequent-in-influential-nodes) dims.
  {
    float mx = 0.0f;
    double sum = 0.0;
    for (float w : feature_importance_) {
      mx = std::max(mx, w);
      sum += w;
    }
    const float mean = static_cast<float>(sum / d);
    const float denom = std::max(mx - mean, 1e-9f);
    dim_term_.resize(d);
    for (std::int64_t i = 0; i < d; ++i) {
      dim_term_[i] = (mx - feature_importance_[i]) / denom;
    }
  }
  // node_term(v) = (phi_max - phi_v) / (phi_max - phi_mean): mean 1 over
  // nodes, smaller for high-centrality nodes.
  {
    float mx = 0.0f;
    double sum = 0.0;
    for (float c : centrality_) {
      mx = std::max(mx, c);
      sum += c;
    }
    const float mean = static_cast<float>(sum / g.num_nodes);
    const float denom = std::max(mx - mean, 1e-9f);
    node_term_.resize(g.num_nodes);
    for (std::int64_t v = 0; v < g.num_nodes; ++v) {
      node_term_[v] = (mx - centrality_[v]) / denom;
    }
  }
}

float ImportanceScores::Similarity(std::int64_t v, std::int64_t u) const {
  return sim_constant_ -
         RowDistance(graph_->features, v, graph_->features, u);
}

float ImportanceScores::EdgeScore(std::int64_t v, std::int64_t u,
                                  bool is_neighbor) const {
  return ScoreFromDistance(
      RowDistance(graph_->features, v, graph_->features, u), u, is_neighbor);
}

float ImportanceScores::ScoreFromDistance(float dist, std::int64_t u,
                                          bool is_neighbor) const {
  // Exponents are normalized to [0, 1] ranges before exp(): the raw
  // phi + Sim form spans several orders of magnitude, which makes the
  // weighted sampling effectively deterministic and collapses the two
  // positive views onto each other. Tempering keeps a clear preference
  // for important edges while preserving sampling diversity.
  const float sim = (sim_constant_ - dist) / std::max(sim_constant_, 1e-6f);
  const float phi = centrality_[u] / std::max(max_centrality_, 1e-6f);
  if (is_neighbor) {
    return beta_ * std::exp(phi + sim);
  }
  return (1.0f - beta_) * std::exp(-phi + sim);
}

float ImportanceScores::PerturbProbability(std::int64_t v, std::int64_t dim,
                                           float eta) const {
  if (eta <= 0.0f) return 0.0f;
  return std::min(eta * dim_term_[dim] * node_term_[v], kProbabilityCap);
}

void ImportanceScores::PerturbProbabilities(std::int64_t v, float eta,
                                            float* out) const {
  const std::int64_t d = static_cast<std::int64_t>(dim_term_.size());
  if (eta <= 0.0f) {
    std::fill(out, out + d, 0.0f);
    return;
  }
  const float node = node_term_[v];
  for (std::int64_t i = 0; i < d; ++i) {
    out[i] = std::min(eta * dim_term_[i] * node, kProbabilityCap);
  }
}

}  // namespace e2gcl
