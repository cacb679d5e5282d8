// Training workloads: train-resident and train-sharded-1m.
//
// This is the only file of the benchmark that names the trainer
// classes and their configurations, so a change to how training is
// driven (for example one trainer for both paths) edits this file and
// nothing else.
//
// Untraced runs (--trace 0) time whole Train() calls. Traced runs
// (--trace 1) first time one untraced Train() as the reference, then
// replay the same pipeline in the trainer's call order through the
// library's public functions with a harness span around each call, and
// report per-layer self times against that reference.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <unistd.h>

#include "autograd/ops.h"
#include "core/contrastive.h"
#include "core/node_selector.h"
#include "core/raw_aggregation.h"
#include "core/trainer.h"
#include "core/view_generator.h"
#include "eval/linear_probe.h"
#include "graph/datasets.h"
#include "graph/splits.h"
#include "harness/layers.h"
#include "harness/trace.h"
#include "harness/workloads.h"
#include "io/checkpoint.h"
#include "nn/gcn.h"
#include "nn/mlp.h"
#include "nn/optim.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "shard/graph_store.h"
#include "shard/halo.h"
#include "shard/partition.h"
#include "shard/sharded_trainer.h"

namespace perfbench {
namespace {

using namespace e2gcl;  // NOLINT: the harness drives the whole library.

constexpr double kMiB = 1024.0 * 1024.0;
// The out-of-core RSS budget bench_scale and check_scale.sh enforce on
// their one seed. ShardedTrainer breaks it on seeds whose batch draws a
// hub: the anchors' (L+1)-hop batch ball then grows from ~4k to ~30k
// nodes and one step lifts VmHWM by ~120 MB. Peak RSS is not an output,
// so a breach is logged here and shows in peak_rss_mb (and in
// shard.halo.batch_ball_nodes_max of a traced run), not as a failed
// operation; see perfbench/README.md.
constexpr double kShardedRssBudgetMb = 160.0;
// Linear-probe floor for train-resident: seed runs of 10 epochs score
// well above it; chance on 40 classes is 2.5%.
constexpr double kProbeAccFloor = 0.30;
constexpr int kResidentEpochs = 10;
constexpr int kShardedEpochs = 1;

// --- Configurations -------------------------------------------------------

/// train-resident: the paper's Table V setting on the arxiv stand-in.
E2gclConfig ResidentConfig(std::uint64_t seed, const std::string& dir) {
  E2gclConfig c;  // r = 0.4, batch 500, 2-layer 64-d GCN are the defaults
  c.epochs = kResidentEpochs;
  c.seed = seed;
  c.checkpoint_dir = dir;
  c.checkpoint_every = 10;
  c.resume = false;
  c.report_path = dir + "/run_report.json";
  return c;
}

/// train-sharded-1m: bench_scale's out-of-core configuration.
ShardedConfig ShardedConfigFor(std::uint64_t seed, std::int64_t n,
                               const std::string& dir) {
  ShardedConfig c;
  c.num_shards = 8;
  c.halo_hops = 1;
  c.base.epochs = kShardedEpochs;
  c.base.hidden_dim = 64;
  c.base.embed_dim = 64;
  c.base.batch_size = 16;
  c.base.seed = seed;
  c.base.node_ratio = std::max(64.0 / static_cast<double>(n), 0.002);
  c.base.selector.num_clusters = 32;
  c.base.selector.sample_size = 8;
  c.base.selector.auto_sample_size = false;
  c.base.report_path = dir + "/run_report.json";
  return c;
}

// --- Shared helpers -------------------------------------------------------

/// Counter deltas over a region.
class CounterWindow {
 public:
  CounterWindow() : base_(MetricsRegistry::Get().Snapshot()) {}
  double Delta(const std::string& name) const {
    return static_cast<double>(
        MetricsRegistry::Get().Snapshot().DeltaFrom(base_).counter(name));
  }

 private:
  MetricsSnapshot base_;
};

/// Seconds the library's own span at `path` has accumulated so far.
double LibrarySpanSeconds(const std::string& path) {
  for (const SpanSnapshot& s : TraceRegistry::Get().Snapshot()) {
    if (s.path == path) return s.seconds;
  }
  return 0.0;
}

struct TrainOutcome {
  double train_s = 0.0;
  double selection_s = 0.0;  // stats().selection_seconds
  double train_cpu_s = 0.0;  // process CPU time during Train()
  std::vector<double> epoch_s;
  double last_loss = 0.0;  // the run report's last epoch
  bool ok = false;
  bool losses_finite = false;
  std::string status;
};

/// Reads the run report Train() wrote: per-epoch losses and times.
void ReadReport(const std::string& path, int expected_epochs,
                TrainOutcome* out) {
  RunReport report;
  std::string error;
  if (!LoadRunReport(path, &report, &error)) {
    out->status = "run report unreadable: " + error;
    out->losses_finite = false;
    return;
  }
  out->losses_finite =
      static_cast<int>(report.epochs.size()) == expected_epochs;
  for (const RunReport::Epoch& e : report.epochs) {
    if (!std::isfinite(e.loss)) out->losses_finite = false;
    out->epoch_s.push_back(e.view_seconds + e.loss_seconds + e.step_seconds +
                           e.checkpoint_seconds);
    out->last_loss = e.loss;
  }
}

std::string FreshDir(const std::string& work, const std::string& name) {
  const std::string dir = work + "/" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

/// Span names of the replay; each maps to one pipeline layer.
constexpr const char* kSpanRawAgg = "core.raw_aggregation";
constexpr const char* kSpanSelect = "core.node_selector";
constexpr const char* kSpanViews = "core.view_generator";
constexpr const char* kSpanNormAdj = "graph.normalized_adjacency";
constexpr const char* kSpanForward = "nn.gcn.forward";
constexpr const char* kSpanProjector = "nn.mlp.projector";
constexpr const char* kSpanLoss = "core.contrastive.loss";
constexpr const char* kSpanBackward = "autograd.backward";
constexpr const char* kSpanAdam = "nn.optim.adam";
constexpr const char* kSpanGuard = "core.trainer.guard";
constexpr const char* kSpanState = "core.trainer.state";
constexpr const char* kSpanCkpt = "io.checkpoint.save";
constexpr const char* kSpanPartition = "shard.partition";
constexpr const char* kSpanBallLoad = "shard.store.ball_load";
constexpr const char* kSpanBatchBall = "shard.halo.batch_ball";
constexpr const char* kSpanTrain = "train";

// ShardedTrainer's RNG streams (sharded_trainer.cc keeps them
// file-local): one independent stream per (kind, epoch, shard), so the
// replay samples the very batches, and so builds the very batch balls,
// that Train() does.
constexpr std::uint64_t kSelectStream = 0x53454c45435421ull;
constexpr std::uint64_t kEpochStream = 0x45504f434821ull;

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng DerivedRng(std::uint64_t seed, std::uint64_t stream, std::uint64_t a,
               std::uint64_t b) {
  return Rng(SplitMix64(seed ^ SplitMix64(stream ^ SplitMix64(a) ^
                                          (b * 0x9e3779b97f4a7c15ULL))));
}

/// What a replay measured beyond its spans.
struct ReplayStats {
  int epochs = 0;
  int checkpoints = 0;
  double cut_fraction = 0.0;
  double balls_built = 0.0;
  double ball_nodes = 0.0;
  double halo_nodes = 0.0;
  /// Nodes of the largest (L+1)-hop batch ball a training step ran on.
  double batch_ball_nodes_max = 0.0;
  /// The coreset the replay selected and its last epoch's loss, to
  /// compare with Train()'s.
  std::vector<std::int64_t> selected;
  double last_loss = 0.0;
  /// Wall time of the whole selection phase (ball loads, aggregation,
  /// coreset, merge).
  double select_phase_s = 0.0;
};

std::vector<Var> ParamsOf(GcnEncoder& encoder, Mlp* projector) {
  std::vector<Var> params;
  for (const Var& p : encoder.params().params()) params.push_back(p);
  if (projector != nullptr) {
    for (const Var& p : projector->params().params()) params.push_back(p);
  }
  return params;
}

void Guard(const std::vector<Var>& params, const Var& loss) {
  double grad_sq = 0.0;
  for (const Var& p : params) {
    const Matrix& g = p.grad();
    for (std::int64_t j = 0; j < g.size(); ++j) {
      grad_sq += static_cast<double>(g.data()[j]) * g.data()[j];
    }
  }
  bool finite = std::isfinite(loss.value()(0, 0)) && std::isfinite(grad_sq);
  for (const Var& p : params) finite = finite && AllFinite(p.value());
  if (!finite) std::fprintf(stderr, "perfbench: replay went non-finite\n");
}

TrainerCheckpoint Capture(std::int64_t epoch, GcnEncoder& encoder,
                          Mlp* projector, const Adam& adam, const Rng& rng) {
  TrainerCheckpoint c;
  c.epoch = epoch;
  c.rng_state = rng.SerializeState();
  c.encoder_params = encoder.params().CloneValues();
  if (projector != nullptr) {
    c.projector_params = projector->params().CloneValues();
  }
  AdamState s = adam.CloneState();
  c.adam_m = std::move(s.m);
  c.adam_v = std::move(s.v);
  c.adam_t = s.t;
  return c;
}

/// The two positive views of one step and their normalized adjacencies.
struct Views {
  Graph hat, tilde;
  std::shared_ptr<const CsrMatrix> adj_hat, adj_tilde;
};

/// Views of one step. Split from ContrastiveStep because the trainers
/// draw them at different points of their RNG stream: the resident one
/// before sampling the batch, the sharded one after.
Views MakeViews(Tracer& tr, const E2gclConfig& cfg,
                const ViewGenerator& generator, Rng& rng) {
  Views v;
  {
    Tracer::Scope s(&tr, kSpanViews);
    v.hat = generator.GenerateGlobalView(cfg.view_hat, rng);
    v.tilde = generator.GenerateGlobalView(cfg.view_tilde, rng);
  }
  Tracer::Scope s(&tr, kSpanNormAdj);
  v.adj_hat = std::make_shared<const CsrMatrix>(NormalizedAdjacency(v.hat));
  v.adj_tilde =
      std::make_shared<const CsrMatrix>(NormalizedAdjacency(v.tilde));
  return v;
}

/// The rest of one contrastive step (forward, loss, backward), shared by
/// both replays; `loss_weight` scales the loss as the sharded trainer's
/// per-shard batch share does.
void ContrastiveStep(Tracer& tr, const E2gclConfig& cfg, const Views& views,
                     GcnEncoder& encoder, Mlp* projector,
                     const std::vector<std::int64_t>& batch,
                     const std::vector<float>& weights, float loss_weight,
                     Rng& rng, Var* loss_out) {
  Var h_hat, h_tilde;
  {
    Tracer::Scope s(&tr, kSpanForward);
    h_hat = encoder.Forward(views.adj_hat, Var::Constant(views.hat.features),
                            rng, /*training=*/true);
    h_tilde = encoder.Forward(views.adj_tilde,
                              Var::Constant(views.tilde.features), rng,
                              /*training=*/true);
  }
  Var z_hat, z_tilde;
  {
    Tracer::Scope s(&tr, kSpanProjector);
    z_hat = ag::GatherRows(h_hat, batch);
    z_tilde = ag::GatherRows(h_tilde, batch);
    if (projector != nullptr) {
      z_hat = projector->Forward(z_hat, rng, /*training=*/true);
      z_tilde = projector->Forward(z_tilde, rng, /*training=*/true);
    }
  }
  Var loss;
  {
    Tracer::Scope s(&tr, kSpanLoss);
    loss = ComputeContrastiveLoss(cfg.loss, z_hat, z_tilde, cfg.temperature,
                                  rng, weights);
    if (loss_weight != 1.0f) loss = ag::Scale(loss, loss_weight);
  }
  {
    Tracer::Scope s(&tr, kSpanBackward);
    loss.Backward();
  }
  *loss_out = loss;
}

// --- Replays --------------------------------------------------------------

/// Mirrors E2gclTrainer::Train() (selection, then per epoch: views,
/// normalization, forward, projector, loss, backward, guard, Adam,
/// checkpoint every `checkpoint_every` epochs).
ReplayStats ReplayResident(Tracer& tr, const Graph& g, const E2gclConfig& cfg,
                           const std::string& ckpt_dir) {
  ReplayStats st;
  Rng rng(cfg.seed);
  GcnConfig enc;
  enc.dims.assign(cfg.num_layers + 1, cfg.hidden_dim);
  enc.dims.front() = g.feature_dim();
  enc.dims.back() = cfg.embed_dim;
  enc.dropout = cfg.dropout;
  GcnEncoder encoder(enc, rng);
  MlpConfig proj;
  proj.dims = {cfg.embed_dim, cfg.embed_dim, cfg.embed_dim};
  Mlp projector(proj, rng);
  const ViewGenerator generator(g, cfg.view_hat.beta);

  Tracer::Scope root(&tr, kSpanTrain);
  const std::int64_t n = g.num_nodes;
  const auto t_select = Clock::now();
  Matrix r;
  {
    Tracer::Scope s(&tr, kSpanRawAgg);
    r = RawAggregation(g, cfg.num_layers);
  }
  SelectionResult sel;
  {
    Tracer::Scope s(&tr, kSpanSelect);
    SelectorConfig sc = cfg.selector;
    sc.budget = std::min<std::int64_t>(
        std::max<std::int64_t>(2, std::llround(cfg.node_ratio * n)), n);
    sel = SelectCoreset(r, sc, rng);
  }
  st.selected = sel.nodes;
  st.select_phase_s = SecondsSince(t_select);
  std::vector<Var> params = ParamsOf(encoder, &projector);
  Adam::Options opts;
  opts.lr = cfg.lr;
  opts.weight_decay = cfg.weight_decay;
  Adam adam(params, opts);
  TrainerCheckpoint rollback;
  {
    Tracer::Scope s(&tr, kSpanState);
    rollback = Capture(-1, encoder, &projector, adam, rng);
  }
  const std::int64_t pool = static_cast<std::int64_t>(sel.nodes.size());
  const std::int64_t batch = std::min<std::int64_t>(cfg.batch_size, pool);
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const Views views = MakeViews(tr, cfg, generator, rng);
    std::vector<std::int64_t> nodes;
    std::vector<float> weights;
    for (std::int64_t i : rng.SampleWithoutReplacement(pool, batch)) {
      nodes.push_back(sel.nodes[i]);
      weights.push_back(sel.weights[i]);
    }
    {
      Tracer::Scope s(&tr, kSpanBackward);
      adam.ZeroGrad();
    }
    Var loss;
    ContrastiveStep(tr, cfg, views, encoder, &projector, nodes, weights,
                    1.0f, rng, &loss);
    st.last_loss = loss.value()(0, 0);
    {
      Tracer::Scope s(&tr, kSpanGuard);
      Guard(params, loss);
    }
    {
      Tracer::Scope s(&tr, kSpanAdam);
      adam.Step();
    }
    if ((epoch + 1) % cfg.checkpoint_every == 0 || epoch + 1 == cfg.epochs) {
      Tracer::Scope s(&tr, kSpanCkpt);
      TrainerCheckpoint ckpt = Capture(epoch, encoder, &projector, adam, rng);
      SaveTrainerCheckpoint(CheckpointPath(ckpt_dir, epoch), ckpt);
      PruneCheckpoints(ckpt_dir, cfg.checkpoint_keep);
      rollback = std::move(ckpt);
      ++st.checkpoints;
    }
    ++st.epochs;
  }
  return st;
}

/// Mirrors ShardedTrainer::Train() on the out-of-core path: partition,
/// per-shard ball load + aggregation + coreset, then per epoch and shard
/// a ball load, the batch ball, and one contrastive step.
ReplayStats ReplaySharded(Tracer& tr, const GraphStore& store,
                          const ShardedConfig& cfg) {
  ReplayStats st;
  const E2gclConfig& base = cfg.base;
  Rng rng(base.seed);
  GcnConfig enc;
  enc.dims.assign(base.num_layers + 1, base.hidden_dim);
  enc.dims.front() = store.feature_dim();
  enc.dims.back() = base.embed_dim;
  enc.dropout = base.dropout;
  GcnEncoder encoder(enc, rng);
  MlpConfig proj;
  proj.dims = {base.embed_dim, base.embed_dim, base.embed_dim};
  Mlp projector(proj, rng);

  Tracer::Scope root(&tr, kSpanTrain);
  const std::int64_t n = store.num_nodes();
  const int shards = cfg.num_shards;
  Partition part;
  {
    Tracer::Scope s(&tr, kSpanPartition);
    PartitionOptions po;
    po.num_shards = shards;
    po.refine_passes = cfg.refine_passes;
    po.balance_slack = cfg.balance_slack;
    po.seed = base.seed;
    part = PartitionGraph(store, po);
  }
  st.cut_fraction = part.CutFraction();
  auto load_ball = [&](int shard, ShardBall* ball) {
    Tracer::Scope s(&tr, kSpanBallLoad);
    if (!LoadShardBall(store, part, shard, cfg.halo_hops, ball)) {
      std::fprintf(stderr, "perfbench: shard ball load failed\n");
      std::exit(1);
    }
    st.balls_built += 1;
    st.ball_nodes += static_cast<double>(ball->nodes.size());
    st.halo_nodes += static_cast<double>(ball->nodes.size()) -
                     static_cast<double>(ball->num_core);
  };

  std::vector<std::int64_t> core_sizes(shards);
  for (int i = 0; i < shards; ++i) {
    core_sizes[i] = static_cast<std::int64_t>(part.shard_nodes[i].size());
  }
  const std::int64_t k_total = std::min<std::int64_t>(
      std::max<std::int64_t>(2, std::llround(base.node_ratio * n)), n);
  const std::vector<std::int64_t> budgets =
      ApportionBudget(k_total, core_sizes);
  const auto t_select = Clock::now();
  std::vector<SelectionResult> per_shard(shards);
  for (int shard = 0; shard < shards; ++shard) {
    if (budgets[shard] <= 0) continue;
    Matrix r_core;
    {
      ShardBall ball;
      load_ball(shard, &ball);
      Tracer::Scope s(&tr, kSpanRawAgg);
      Matrix r_ball = RawAggregation(ball.graph, base.num_layers);
      const std::vector<std::int64_t> core_local = std::move(ball.core_local);
      ball = ShardBall();
      r_core = GatherRows(r_ball, core_local);
    }
    Tracer::Scope s(&tr, kSpanSelect);
    SelectorConfig sc = base.selector;
    sc.budget = budgets[shard];
    Rng sel_rng = DerivedRng(base.seed, kSelectStream, 0,
                             static_cast<std::uint64_t>(shard));
    per_shard[shard] = SelectCoreset(r_core, sc, sel_rng);
  }
  {
    Tracer::Scope s(&tr, kSpanSelect);
    st.selected = MergeShardSelections(per_shard, part.shard_nodes).nodes;
  }
  st.select_phase_s = SecondsSince(t_select);

  std::vector<Var> params = ParamsOf(encoder, &projector);
  Adam::Options opts;
  opts.lr = base.lr;
  opts.weight_decay = base.weight_decay;
  Adam adam(params, opts);
  std::vector<std::int64_t> pool_sizes(shards);
  std::int64_t total_pool = 0;
  for (int i = 0; i < shards; ++i) {
    pool_sizes[i] = static_cast<std::int64_t>(per_shard[i].nodes.size());
    total_pool += pool_sizes[i];
  }
  std::vector<std::int64_t> parts = ApportionBudget(
      std::min<std::int64_t>(base.batch_size, total_pool), pool_sizes);
  std::int64_t batch_total = 0;
  for (std::int64_t& p : parts) {
    if (p < 2) p = 0;
    batch_total += p;
  }
  {
    Tracer::Scope s(&tr, kSpanState);
    Capture(-1, encoder, &projector, adam, rng);
  }
  for (int epoch = 0; epoch < base.epochs; ++epoch) {
    {
      Tracer::Scope s(&tr, kSpanBackward);
      adam.ZeroGrad();
    }
    Var loss;
    double loss_sum = 0.0;
    for (int shard = 0; shard < shards; ++shard) {
      if (parts[shard] == 0) continue;
      Rng erng = DerivedRng(base.seed, kEpochStream,
                            static_cast<std::uint64_t>(epoch),
                            static_cast<std::uint64_t>(shard));
      ShardBall ball;
      load_ball(shard, &ball);
      Graph sub;
      std::vector<std::int64_t> batch_sub;
      std::vector<float> weights;
      {
        Tracer::Scope s(&tr, kSpanBatchBall);
        std::vector<std::int64_t> batch_local;
        for (std::int64_t i :
             erng.SampleWithoutReplacement(pool_sizes[shard], parts[shard])) {
          batch_local.push_back(ball.core_local[per_shard[shard].nodes[i]]);
          weights.push_back(per_shard[shard].weights[i]);
        }
        std::vector<std::int64_t> seeds = batch_local;
        std::sort(seeds.begin(), seeds.end());
        const GraphAdjacency ball_adj(ball.graph);
        const std::vector<std::int64_t> sub_nodes =
            BfsBall(ball_adj, seeds, base.num_layers + 1);
        sub = InducedSubgraph(ball.graph, sub_nodes);
        st.batch_ball_nodes_max = std::max(
            st.batch_ball_nodes_max, static_cast<double>(sub.num_nodes));
        for (std::int64_t v : batch_local) {
          batch_sub.push_back(
              std::lower_bound(sub_nodes.begin(), sub_nodes.end(), v) -
              sub_nodes.begin());
        }
        ball = ShardBall();
      }
      std::unique_ptr<ViewGenerator> generator;
      {
        Tracer::Scope s(&tr, kSpanViews);
        generator = std::make_unique<ViewGenerator>(sub, base.view_hat.beta);
      }
      const Views views = MakeViews(tr, base, *generator, erng);
      ContrastiveStep(tr, base, views, encoder, &projector, batch_sub,
                      weights,
                      static_cast<float>(parts[shard]) /
                          static_cast<float>(batch_total),
                      erng, &loss);
      loss_sum += loss.value()(0, 0);
    }
    st.last_loss = loss_sum;
    {
      Tracer::Scope s(&tr, kSpanAdam);
      adam.Step();
    }
    {
      Tracer::Scope s(&tr, kSpanGuard);
      Guard(params, loss);
      RecordPeakRssGauge();
    }
    ++st.epochs;
  }
  return st;
}

// --- Untraced Train() -----------------------------------------------------

/// One timed Train() of the workload. `resident` is null for the
/// sharded workload (then `store` is used).
TrainOutcome TimedTrain(const Graph* resident, const GraphStore* store,
                        std::uint64_t seed, const std::string& work,
                        int rep, SelectionResult* selection,
                        Matrix* embeddings) {
  TrainOutcome out;
  const std::string dir = FreshDir(work, "train-" + std::to_string(rep));
  TrainResult result;
  if (resident != nullptr) {
    E2gclTrainer trainer(*resident, ResidentConfig(seed, dir));
    const double c0 = ProcessCpuSeconds(::getpid());
    const auto t0 = Clock::now();
    result = trainer.Train();
    out.train_s = SecondsSince(t0);
    out.train_cpu_s = ProcessCpuSeconds(::getpid()) - c0;
    out.selection_s = trainer.stats().selection_seconds;
    if (selection != nullptr) *selection = trainer.selection();
    if (embeddings != nullptr) {
      *embeddings = trainer.encoder().Encode(*resident);
    }
    ReadReport(dir + "/run_report.json", kResidentEpochs, &out);
  } else {
    ShardedTrainer trainer(*store,
                           ShardedConfigFor(seed, store->num_nodes(), dir));
    const double c0 = ProcessCpuSeconds(::getpid());
    const auto t0 = Clock::now();
    result = trainer.Train();
    out.train_s = SecondsSince(t0);
    out.train_cpu_s = ProcessCpuSeconds(::getpid()) - c0;
    out.selection_s = trainer.stats().selection_seconds;
    if (selection != nullptr) *selection = trainer.selection();
    ReadReport(dir + "/run_report.json", kShardedEpochs, &out);
  }
  out.ok = result.ok();
  if (out.status.empty()) out.status = out.ok ? "ok" : result.message;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return out;
}

void ReportLayers(Result& res, const Tracer& tr, const ReplayStats& st,
                  const CounterWindow& counters, double kmeans_s,
                  const TrainOutcome& ref) {
  const double train_s = ref.train_s;
  const std::map<std::string, double> self = tr.SelfSeconds();
  auto self_of = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double epochs = std::max(1, st.epochs);
  double attributed = 0.0;
  for (const auto& [name, s] : self) {
    if (name != kSpanTrain) attributed += s;
  }
  const double replay_s = tr.TotalSeconds().at(kSpanTrain);
  const double select_s = self_of(kSpanSelect);
  const double jobs = counters.Delta("parallel.jobs");
  const double candidates = counters.Delta("viewgen.edge_candidates");
  std::map<std::string, double> v;
  v["core.trainer.epoch_p50_ms"] = 1e3 * Median(ref.epoch_s);
  v["core.raw_aggregation.s"] = self_of(kSpanRawAgg);
  v["cluster.kmeans.s"] = kmeans_s;
  v["cluster.kmeans.iterations"] = counters.Delta("kmeans.iterations");
  v["core.node_selector.greedy_s"] = select_s - kmeans_s;
  v["core.node_selector.candidates_evaluated"] =
      counters.Delta("selector.candidates_evaluated");
  // The whole selection phase (ball loads, aggregation, coreset) over
  // the untraced train_s — the paper's ST/TT — and, separately, the
  // trainer's own selection_seconds, which covers SelectCoreset only.
  v["core.node_selector.select_share"] = st.select_phase_s / train_s;
  v["core.node_selector.select_coreset_share"] = ref.selection_s / train_s;
  v["core.view_generator.ms_per_epoch"] = 1e3 * self_of(kSpanViews) / epochs;
  v["core.view_generator.sampled_per_candidate"] =
      candidates > 0 ? counters.Delta("viewgen.edges_sampled") / candidates
                     : 0.0;
  v["graph.normalized_adjacency.ms_per_epoch"] =
      1e3 * self_of(kSpanNormAdj) / epochs;
  v["nn.gcn.forward_ms_per_epoch"] = 1e3 * self_of(kSpanForward) / epochs;
  v["nn.mlp.projector_ms_per_epoch"] = 1e3 * self_of(kSpanProjector) / epochs;
  v["core.contrastive.loss_ms_per_epoch"] = 1e3 * self_of(kSpanLoss) / epochs;
  v["autograd.backward_ms_per_epoch"] = 1e3 * self_of(kSpanBackward) / epochs;
  v["nn.optim.adam_ms_per_epoch"] = 1e3 * self_of(kSpanAdam) / epochs;
  v["core.trainer.guard_ms_per_epoch"] = 1e3 * self_of(kSpanGuard) / epochs;
  v["io.checkpoint.save_ms"] =
      st.checkpoints > 0 ? 1e3 * self_of(kSpanCkpt) / st.checkpoints : 0.0;
  v["io.checkpoint.bytes"] = counters.Delta("checkpoint.bytes_written");
  v["tensor.spmm.calls"] = counters.Delta("spmm.calls");
  v["tensor.spmm.bytes"] = counters.Delta("spmm.bytes");
  v["tensor.matmul.fmas"] = counters.Delta("matmul.fmas");
  v["parallel.jobs"] = jobs;
  v["parallel.chunks_per_job"] =
      jobs > 0 ? counters.Delta("parallel.chunks") / jobs : 0.0;
  v["shard.partition.s"] = self_of(kSpanPartition);
  v["shard.partition.cut_fraction"] = st.cut_fraction;
  v["shard.store.ball_load_s"] = self_of(kSpanBallLoad);
  v["shard.halo.batch_ball_s"] = self_of(kSpanBatchBall);
  v["shard.halo.balls_built"] = st.balls_built;
  v["shard.halo.halo_share"] =
      st.ball_nodes > 0 ? st.halo_nodes / st.ball_nodes : 0.0;
  v["shard.halo.batch_ball_nodes_max"] = st.batch_ball_nodes_max;
  v["trace.reference_train_s"] = train_s;
  v["trace.unattributed_s"] = train_s - attributed;
  v["trace.attributed_share"] = attributed / train_s;
  v["trace.overhead_share"] = (replay_s - train_s) / train_s;
  for (const LayerMetric& m : kTrainLayers) {
    res.Metric(m.name, v.at(m.name), m.unit);
  }
  ReportIdle(res, kServeLayers);
}

}  // namespace

// --- Subcommands ----------------------------------------------------------

int PrepareStore(const Args& args) {
  const std::uint64_t seed = static_cast<std::uint64_t>(args.Int("seed"));
  const std::string dir = args.Str("dir");
  Result res;
  const auto t0 = Clock::now();
  bool ok = false;
  {
    const Graph g = LoadDataset("synthetic-1m", seed);
    ok = GraphStore::Write(dir, g);
  }
  res.Metric("setup_s", SecondsSince(t0), "s");
  res.Check(ok, "graph store write");
  res.Emit();
  return 0;
}

int RunTrain(const Args& args) {
  const std::string workload = args.Str("workload");
  const std::uint64_t seed = static_cast<std::uint64_t>(args.Int("seed"));
  const double seconds = args.Double("seconds", 10.0);
  const bool trace = args.Int("trace", 0) != 0;
  const std::string work = args.Str("work");
  const bool sharded = workload == "train-sharded-1m";
  if (!sharded && workload != "train-resident") {
    std::fprintf(stderr, "perfbench: unknown training workload %s\n",
                 workload.c_str());
    return 2;
  }
  Result res;

  Graph graph;
  GraphStore store;
  std::vector<double> setup_s;
  if (sharded) {
#if defined(__GLIBC__)
    // Same allocator pin as bench_scale: matrix-sized blocks are mmap'd
    // and returned on free, so VmHWM measures the trainer's live memory
    // rather than glibc's heap retention.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
#endif
    if (!store.Open(args.Str("store"))) {
      std::fprintf(stderr, "perfbench: cannot open graph store\n");
      return 1;
    }
  } else {
    // Set-up is cheap here, so it is repeated and its median
    // reported; 9 repeats keep that median steady across runs.
    for (int i = 0; i < 9; ++i) {
      const auto t0 = Clock::now();
      graph = LoadDataset("arxiv", seed);
      setup_s.push_back(SecondsSince(t0));
    }
  }
  const Graph* resident = sharded ? nullptr : &graph;
  const std::int64_t n = sharded ? store.num_nodes() : graph.num_nodes;

  auto check_outcome = [&](const TrainOutcome& o, int rep) {
    const std::string tag = workload + " rep " + std::to_string(rep);
    res.Check(o.ok, tag + ": Train() status " + o.status);
    res.Check(o.losses_finite, tag + ": every epoch's loss finite");
  };

  if (!trace) {
    std::vector<double> train_s, train_cpu_s, epoch_s;
    SelectionResult selection;
    Matrix embeddings;
    const auto t_all = Clock::now();
    int rep = 0;
    do {
      const TrainOutcome o =
          TimedTrain(resident, sharded ? &store : nullptr, seed, work, rep,
                     rep == 0 ? &selection : nullptr,
                     rep == 0 && !sharded ? &embeddings : nullptr);
      check_outcome(o, rep);
      train_s.push_back(o.train_s);
      train_cpu_s.push_back(o.train_cpu_s);
      std::fprintf(stderr,
                   "perfbench %s: rep %d train_s %.3f cpu_s %.3f "
                   "selection_s %.3f\n",
                   workload.c_str(), rep, o.train_s, o.train_cpu_s,
                   o.selection_s);
      epoch_s.insert(epoch_s.end(), o.epoch_s.begin(), o.epoch_s.end());
      ++rep;
    } while (SecondsSince(t_all) < seconds);
    if (!sharded) {
      const std::int64_t budget = std::min<std::int64_t>(
          std::max<std::int64_t>(
              2, std::llround(ResidentConfig(seed, work).node_ratio * n)),
          n);
      res.Check(static_cast<std::int64_t>(selection.nodes.size()) == budget,
                "selection size equals round(r*|V|)");
      Rng split_rng(seed);
      const NodeSplit split = RandomNodeSplit(n, 0.1, 0.1, split_rng);
      const double acc = LinearProbeAccuracy(embeddings, graph.labels,
                                             graph.num_classes, split);
      res.Check(acc >= kProbeAccFloor, "linear-probe accuracy " +
                                           std::to_string(acc) +
                                           " below floor");
      res.Info("probe_acc", acc);
      res.Metric("setup_s", Median(setup_s), "s");
    }
    const double peak_mb = static_cast<double>(PeakRssBytes()) / kMiB;
    if (sharded) {
      res.Info("rss_budget_mb", kShardedRssBudgetMb);
      res.Info("rss_within_budget", peak_mb <= kShardedRssBudgetMb ? 1 : 0);
      if (peak_mb > kShardedRssBudgetMb) {
        std::fprintf(stderr,
                     "perfbench: known defect: peak RSS %.1f MB exceeds the "
                     "%.0f MB out-of-core budget\n",
                     peak_mb, kShardedRssBudgetMb);
      }
    }
    res.Metric("peak_rss_mb", peak_mb, "MB");
    // Graph nodes pre-trained per CPU-second of Train() (selection and
    // every epoch included).
    res.Metric("work_per_cpu_s",
               static_cast<double>(n) / Median(train_cpu_s), "1/s");
    res.Info("epoch_p50_ms", 1e3 * Median(epoch_s));
    res.Info("train_s", Median(train_s));
    res.Info("train_reps", static_cast<double>(train_s.size()));
    res.Emit();
    return 0;
  }

  // Traced run: one untraced reference Train(), then the replay.
  SelectionResult ref_selection;
  const TrainOutcome ref = TimedTrain(resident, sharded ? &store : nullptr,
                                      seed, work, 0, &ref_selection, nullptr);
  check_outcome(ref, 0);
  Tracer tracer;
  const CounterWindow counters;
  const double kmeans_before = LibrarySpanSeconds("select_coreset/kmeans");
  ReplayStats st;
  if (sharded) {
    st = ReplaySharded(tracer, store,
                       ShardedConfigFor(seed, n, FreshDir(work, "replay")));
  } else {
    const std::string dir = FreshDir(work, "replay");
    st = ReplayResident(tracer, graph, ResidentConfig(seed, dir), dir);
  }
  const double kmeans_s =
      LibrarySpanSeconds("select_coreset/kmeans") - kmeans_before;
  // The replay's layer times stand for Train()'s only if it did the same
  // work: same coreset, same batches, so the same last-epoch loss.
  res.Check(st.selected == ref_selection.nodes,
            "replay selected the coreset Train() selected");
  res.Check(std::abs(st.last_loss - ref.last_loss) <=
                1e-5 * std::max(1.0, std::abs(ref.last_loss)),
            "replay last-epoch loss " + std::to_string(st.last_loss) +
                " equals Train()'s " + std::to_string(ref.last_loss));
  ReportLayers(res, tracer, st, counters, kmeans_s, ref);
  const std::string spans = work + "/spans-" + workload + ".json";
  res.Check(tracer.WriteJson(spans), "span file written");
  res.Info("spans", spans);
  res.Emit();
  return 0;
}

}  // namespace perfbench
