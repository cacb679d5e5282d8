#include "core/view_generator.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "core/raw_aggregation.h"
#include "nn/gcn.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/check.h"

namespace e2gcl {

namespace {

// View-generation telemetry. All of these sit on serial, RNG-driven
// paths, so the counts are identical at any thread count.
const Counter& ViewsCounter() {
  static const Counter c = Counter::Get("viewgen.views");
  return c;
}
const Counter& EdgesSampledCounter() {
  static const Counter c = Counter::Get("viewgen.edges_sampled");
  return c;
}
const Counter& CandidatesCounter() {
  static const Counter c = Counter::Get("viewgen.edge_candidates");
  return c;
}
const Counter& FeaturesPerturbedCounter() {
  static const Counter c = Counter::Get("viewgen.features_perturbed");
  return c;
}

// Consecutive rejected path draws after which CollectTwoHopCandidates
// stops drawing and scans: most 2-hop paths then lead back into
// {u} + N_u, or the distinct 2-hop set is exhausted.
constexpr std::int64_t kMaxRejectionRun = 64;

}  // namespace

struct ViewGenerator::Scratch {
  std::vector<char> seen;             // 2-hop marks, reset via `touched`
  std::vector<std::int64_t> touched;  // every node marked for this u
  std::vector<std::int64_t> candidates;
  std::vector<std::int64_t> path_prefix;  // prefix sums of deg(w), w in N_u
  std::vector<float> weights;
  std::vector<std::pair<float, std::int64_t>> keys;
  std::vector<std::int64_t> picked;
  std::vector<float> probabilities;  // one feature row's Eq. (16) p
  std::vector<std::int32_t> hits;    // its perturbed dimensions
};

ViewGenerator::ViewGenerator(const Graph& graph, float beta)
    : graph_(&graph), scores_(graph, beta) {}

void ViewGenerator::CollectTwoHopCandidates(std::int64_t u, std::int64_t cap,
                                            Rng& rng, Scratch* s) const {
  const Graph& g = *graph_;
  const auto nb = g.Neighbors(u);
  const std::int64_t deg = static_cast<std::int64_t>(nb.size());
  std::vector<std::int64_t>& candidates = s->candidates;
  if (static_cast<std::int64_t>(s->seen.size()) < g.num_nodes) {
    s->seen.assign(g.num_nodes, 0);
  }
  s->touched.clear();
  auto mark = [&](std::int64_t x) {
    s->seen[x] = 1;
    s->touched.push_back(x);
  };
  mark(u);
  for (std::int32_t w : nb) mark(w);

  // 2-hop path r in [0, paths) is u -> w -> x with w = N_u[j] for
  // prefix[j] <= r < prefix[j + 1] and x = N_w[r - prefix[j]].
  std::vector<std::int64_t>& prefix = s->path_prefix;
  prefix.resize(deg + 1);
  prefix[0] = 0;
  for (std::int64_t i = 0; i < deg; ++i) {
    prefix[i + 1] = prefix[i] + g.Degree(nb[i]);
  }
  const std::int64_t paths = prefix[deg];

  // Large neighbourhoods: draw uniform paths and keep unmarked
  // endpoints, one draw per path looked at. Endpoints come out distinct
  // and weighted by how many paths reach them.
  bool drawn = false;
  if (paths > 2 * cap) {
    std::int64_t run = 0;
    while (static_cast<std::int64_t>(candidates.size()) - deg < cap &&
           run < kMaxRejectionRun) {
      const std::int64_t r = rng.UniformInt(paths);
      const std::int64_t j =
          std::upper_bound(prefix.begin() + 1, prefix.end(), r) -
          (prefix.begin() + 1);
      const std::int32_t x = g.col[g.row_ptr[nb[j]] + (r - prefix[j])];
      if (s->seen[x]) {
        ++run;
        continue;
      }
      run = 0;
      mark(x);
      candidates.push_back(x);
    }
    drawn = static_cast<std::int64_t>(candidates.size()) - deg == cap;
    if (!drawn) {
      // Too many rejections: drop the draws and scan instead.
      for (std::size_t k = deg; k < candidates.size(); ++k) {
        s->seen[candidates[k]] = 0;
      }
      candidates.resize(deg);
    }
  }
  // Small neighbourhoods (or the fallback): collect every distinct
  // endpoint, then keep a uniform cap-subset by partial Fisher-Yates.
  if (!drawn) {
    for (std::int32_t w : nb) {
      for (std::int32_t x : g.Neighbors(w)) {
        if (s->seen[x]) continue;
        mark(x);
        candidates.push_back(x);
      }
    }
    const std::int64_t found = static_cast<std::int64_t>(candidates.size()) -
                               deg;
    if (found > cap) {
      for (std::int64_t k = 0; k < cap; ++k) {
        std::swap(candidates[deg + k],
                  candidates[deg + k + rng.UniformInt(found - k)]);
      }
      candidates.resize(deg + cap);
    }
  }
  for (std::int64_t x : s->touched) s->seen[x] = 0;
}

void ViewGenerator::SampleNeighbors(std::int64_t u, const ViewConfig& config,
                                    Rng& rng, Scratch* s,
                                    std::vector<std::int64_t>* out) const {
  const Graph& g = *graph_;
  const auto nb = g.Neighbors(u);
  const std::int64_t deg = static_cast<std::int64_t>(nb.size());
  out->clear();
  if (deg == 0) return;

  // Candidate set V_u^N = N_u^1 (always, all of it, as candidates
  // [0, deg)) plus a subsample of N_u^2 (capped for dense graphs).
  std::vector<std::int64_t>& candidates = s->candidates;
  candidates.assign(nb.begin(), nb.end());
  if (config.allow_edge_addition && config.max_two_hop_candidates > 0) {
    CollectTwoHopCandidates(u, config.max_two_hop_candidates, rng, s);
  }
  const std::int64_t num_candidates =
      static_cast<std::int64_t>(candidates.size());

  CandidatesCounter().Add(num_candidates);

  // Number of neighbors to draw: round(tau * |N_u|), at least 1 so no
  // node is isolated unless tau == 0, capped by the candidate count.
  std::int64_t want = static_cast<std::int64_t>(
      std::llround(static_cast<double>(config.tau) * deg));
  if (config.tau > 0.0f) want = std::max<std::int64_t>(want, 1);
  want = std::min<std::int64_t>(want, num_candidates);
  if (want <= 0) return;

  // Scores of the candidates from `first` on; existing edges come from
  // the per-slot cache.
  std::vector<float>& weights = s->weights;
  auto score = [&](std::int64_t first) {
    weights.resize(num_candidates - first);
    if (config.importance_edges) {
      // 2-hop rows lie scattered over the feature matrix: request them
      // all before the distance loop so their cache misses overlap.
      const std::int64_t dim = g.feature_dim();
      for (std::int64_t i = std::max(first, deg); i < num_candidates; ++i) {
        const float* row = g.features.RowPtr(candidates[i]);
        for (std::int64_t o = 0; o < dim; o += 16) __builtin_prefetch(row + o);
      }
    }
    for (std::int64_t i = first; i < num_candidates; ++i) {
      float w = 1.0f;
      if (config.importance_edges) {
        w = i < deg ? scores_.NeighborEdgeScore(g.row_ptr[u] + i)
                    : scores_.EdgeScore(u, candidates[i], false);
      }
      weights[i - first] = w;
    }
  };

  if (!config.allow_edge_deletion) {
    // Keep all existing neighbors; only top up with additions.
    out->assign(nb.begin(), nb.end());
    const std::int64_t extra = want > deg ? want - deg : 0;
    if (extra > 0 && num_candidates > deg) {
      score(deg);
      rng.WeightedSampleWithoutReplacement(weights, extra, &s->keys,
                                           &s->picked);
      for (std::int64_t idx : s->picked) {
        out->push_back(candidates[deg + idx]);
      }
    }
    EdgesSampledCounter().Add(out->size());
    return;
  }

  score(0);
  rng.WeightedSampleWithoutReplacement(weights, want, &s->keys, &s->picked);
  for (std::int64_t idx : s->picked) out->push_back(candidates[idx]);
  EdgesSampledCounter().Add(out->size());
}

void ViewGenerator::PerturbRow(float* row, std::int64_t node,
                               const ViewConfig& config, Rng& rng,
                               Scratch* s) const {
  if (!config.allow_feature_perturbation || config.eta <= 0.0f) return;
  const std::int64_t d = graph_->feature_dim();
  std::vector<float>& p = s->probabilities;
  p.resize(d);
  if (config.importance_features) {
    scores_.PerturbProbabilities(node, config.eta, p.data());
  } else {
    std::fill(p.begin(), p.end(),
              std::min(config.eta, ImportanceScores::kProbabilityCap));
  }
  // Bernoulli(p_i) compares one 32-bit half of an engine output with
  // floor(p_i * 2^32) (p_i <= kProbabilityCap < 1, so it fits). The
  // hits are collected without branching; then each hit draws its
  // U(-1, 1) factor, so the row costs d/2 engine draws plus one per hit.
  std::vector<std::int32_t>& hits = s->hits;
  hits.resize(d);
  std::int64_t num_hits = 0;
  std::uint64_t bits = 0;
  for (std::int64_t i = 0; i < d; ++i) {
    bits = (i & 1) == 0 ? rng.Next64() : bits >> 32;
    const auto threshold = static_cast<std::uint32_t>(
        std::floor(static_cast<double>(p[i]) * 0x1.0p32));
    hits[num_hits] = static_cast<std::int32_t>(i);
    num_hits += static_cast<std::uint32_t>(bits) < threshold ? 1 : 0;
  }
  for (std::int64_t h = 0; h < num_hits; ++h) {
    // Eq. (16): x += U(-1, 1) * x.
    float& x = row[hits[h]];
    x += (2.0f * rng.Uniform() - 1.0f) * x;
  }
  if (num_hits > 0) FeaturesPerturbedCounter().Add(num_hits);
}

Graph ViewGenerator::GenerateGlobalView(const ViewConfig& config,
                                        Rng& rng) const {
  TraceSpan view_span("generate_view");
  ViewsCounter().Increment();
  const Graph& g = *graph_;
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  edges.reserve(g.col.size() / 2 + g.num_nodes);
  Scratch scratch;
  std::vector<std::int64_t> sampled;
  for (std::int64_t u = 0; u < g.num_nodes; ++u) {
    SampleNeighbors(u, config, rng, &scratch, &sampled);
    for (std::int64_t v : sampled) {
      edges.emplace_back(std::min(u, v), std::max(u, v));
    }
  }
  Matrix x = g.features;
  for (std::int64_t v = 0; v < g.num_nodes; ++v) {
    PerturbRow(x.RowPtr(v), v, config, rng, &scratch);
  }
  return BuildGraph(g.num_nodes, edges, std::move(x), g.labels,
                    g.num_classes);
}

Graph ViewGenerator::GeneratePerNodeView(
    std::int64_t root, int hops, const ViewConfig& config, Rng& rng,
    std::int64_t* root_index,
    std::vector<std::int64_t>* subgraph_nodes) const {
  TraceSpan view_span("generate_view");
  ViewsCounter().Increment();
  const Graph& g = *graph_;
  E2GCL_CHECK(root >= 0 && root < g.num_nodes);
  E2GCL_CHECK(hops >= 1);

  // Alg. 3 lines 3-12: expand frontier by frontier, sampling each
  // frontier node's neighbors once. `in_view`/`expanded` are
  // membership checks only; discovered nodes are collected into
  // `nodes` in insertion order so the (sorted) subgraph never depends
  // on hash iteration order.
  std::unordered_set<std::int64_t> in_view{root};
  std::vector<std::int64_t> nodes{root};
  std::vector<std::int64_t> frontier{root};
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  std::unordered_set<std::int64_t> expanded;
  Scratch scratch;
  std::vector<std::int64_t> sampled;
  for (int l = 0; l < hops; ++l) {
    std::vector<std::int64_t> next;
    for (std::int64_t u : frontier) {
      if (!expanded.insert(u).second) continue;
      SampleNeighbors(u, config, rng, &scratch, &sampled);
      for (std::int64_t v : sampled) {
        edges.emplace_back(u, v);
        if (in_view.insert(v).second) {
          nodes.push_back(v);
          next.push_back(v);
        }
      }
    }
    frontier = std::move(next);
  }

  // Remap to a compact subgraph.
  std::sort(nodes.begin(), nodes.end());
  std::unordered_map<std::int64_t, std::int64_t> remap;
  for (std::size_t i = 0; i < nodes.size(); ++i) remap[nodes[i]] = i;
  std::vector<std::pair<std::int64_t, std::int64_t>> local_edges;
  local_edges.reserve(edges.size());
  for (const auto& [a, b] : edges) {
    local_edges.emplace_back(remap[a], remap[b]);
  }
  Matrix x = GatherRows(g.features, nodes);
  // Lines 13-16: perturb features of every node in the view.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    PerturbRow(x.RowPtr(i), nodes[i], config, rng, &scratch);
  }
  std::vector<std::int64_t> labels;
  if (!g.labels.empty()) {
    for (std::int64_t v : nodes) labels.push_back(g.labels[v]);
  }
  if (root_index != nullptr) *root_index = remap[root];
  if (subgraph_nodes != nullptr) *subgraph_nodes = nodes;
  return BuildGraph(static_cast<std::int64_t>(nodes.size()), local_edges,
                    std::move(x), std::move(labels), g.num_classes);
}

ViewQuality EvaluateViewQuality(const GcnEncoder& encoder, const Graph& g,
                                const Graph& view_hat,
                                const Graph& view_tilde,
                                const std::vector<std::int64_t>& nodes) {
  E2GCL_CHECK(!nodes.empty());
  E2GCL_CHECK(view_hat.num_nodes == g.num_nodes &&
              view_tilde.num_nodes == g.num_nodes);
  const Matrix h = encoder.Encode(g);
  const Matrix h_hat = encoder.Encode(view_hat);
  const Matrix h_tilde = encoder.Encode(view_tilde);
  const int layers = encoder.num_layers();
  const Matrix r_hat = RawAggregation(view_hat, layers);
  const Matrix r_tilde = RawAggregation(view_tilde, layers);

  ViewQuality q;
  for (std::int64_t v : nodes) {
    q.locality_hat += RowDistance(h_hat, v, h, v);
    q.locality_tilde += RowDistance(h_tilde, v, h, v);
    q.diversity += RowDistance(r_hat, v, r_tilde, v);
  }
  const double inv = 1.0 / static_cast<double>(nodes.size());
  q.locality_hat *= inv;
  q.locality_tilde *= inv;
  q.diversity *= inv;
  return q;
}

}  // namespace e2gcl
