// The per-layer metrics a traced run reports. Every traced run reports
// every name in both tables: a workload that does not exercise a layer
// reports the zero work that layer did (no training on a serving
// workload, no sockets on a training workload).
#ifndef PERFBENCH_HARNESS_LAYERS_H_
#define PERFBENCH_HARNESS_LAYERS_H_

#include "harness/common.h"

namespace perfbench {

struct LayerMetric {
  const char* name;
  const char* unit;
};

inline constexpr LayerMetric kTrainLayers[] = {
    {"core.trainer.epoch_p50_ms", "ms"},
    {"core.raw_aggregation.s", "s"},
    {"cluster.kmeans.s", "s"},
    {"cluster.kmeans.iterations", "count"},
    {"core.node_selector.greedy_s", "s"},
    {"core.node_selector.candidates_evaluated", "count"},
    {"core.node_selector.select_share", "ratio"},
    {"core.node_selector.select_coreset_share", "ratio"},
    {"core.view_generator.ms_per_epoch", "ms"},
    {"core.view_generator.sampled_per_candidate", "ratio"},
    {"graph.normalized_adjacency.ms_per_epoch", "ms"},
    {"nn.gcn.forward_ms_per_epoch", "ms"},
    {"nn.mlp.projector_ms_per_epoch", "ms"},
    {"core.contrastive.loss_ms_per_epoch", "ms"},
    {"autograd.backward_ms_per_epoch", "ms"},
    {"nn.optim.adam_ms_per_epoch", "ms"},
    {"core.trainer.guard_ms_per_epoch", "ms"},
    {"io.checkpoint.save_ms", "ms"},
    {"io.checkpoint.bytes", "bytes"},
    {"tensor.spmm.calls", "count"},
    {"tensor.spmm.bytes", "bytes"},
    {"tensor.matmul.fmas", "count"},
    {"parallel.jobs", "count"},
    {"parallel.chunks_per_job", "ratio"},
    {"shard.partition.s", "s"},
    {"shard.partition.cut_fraction", "ratio"},
    {"shard.store.ball_load_s", "s"},
    {"shard.halo.batch_ball_s", "s"},
    {"shard.halo.balls_built", "count"},
    {"shard.halo.halo_share", "ratio"},
    {"shard.halo.batch_ball_nodes_max", "count"},
    {"trace.reference_train_s", "s"},
    {"trace.unattributed_s", "s"},
    {"trace.attributed_share", "ratio"},
    {"trace.overhead_share", "ratio"},
};

inline constexpr LayerMetric kServeLayers[] = {
    {"serve.max_qps_at_slo", "1/s"},
    {"serve.lookup_p50_us", "us"},
    {"serve.lookup_p99_us", "us"},
    {"serve.topk_p50_us", "us"},
    {"serve.topk_p99_us", "us"},
    {"net.wire_us_p50", "us"},
    {"net.frames_ok", "count"},
    {"net.rejected", "count"},
    {"net.in_flight_max", "count"},
    {"serve.inproc_p50_us", "us"},
    {"serve.inproc_p99_us", "us"},
    {"serve.batch_size_mean", "requests"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.rows_computed", "count"},
    {"nn.gcn.encode_rows_us_per_row", "us"},
    {"serve.topk.scan_us", "us"},
    {"gen.lateness_p99_us", "us"},
};

/// Reports every metric of `table` as zero: the workload did no work
/// in those layers.
template <std::size_t N>
void ReportIdle(Result& res, const LayerMetric (&table)[N]) {
  for (const LayerMetric& m : table) res.Metric(m.name, 0.0, m.unit);
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LAYERS_H_
