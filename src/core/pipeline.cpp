#include "core/pipeline.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "common/thread_pool.h"
#include "reader/reader_pool.h"
#include "train/model.h"

namespace recd::core {

void ValidatePipelineOptions(const PipelineOptions& options) {
  if (options.num_scribe_shards == 0) {
    throw std::invalid_argument(
        "PipelineOptions: num_scribe_shards must be >= 1");
  }
  if (options.samples_per_partition == 0) {
    throw std::invalid_argument(
        "PipelineOptions: samples_per_partition must be >= 1");
  }
  if (options.rows_per_stripe == 0) {
    throw std::invalid_argument(
        "PipelineOptions: rows_per_stripe must be >= 1");
  }
}

reader::DataLoaderConfig MakePipelineLoader(const train::ModelConfig& model,
                                            const RecdConfig& config) {
  auto loader =
      train::MakeDataLoaderConfig(model, config.batch_size, config.use_ikjt);
  // A representative preprocessing pipeline: hash the first dedup-able
  // feature group and normalize dense inputs.
  if (!model.elementwise_features.empty()) {
    loader.transforms.push_back({reader::TransformKind::kSparseHash,
                                 model.elementwise_features.front(),
                                 1'000'003, 0});
  }
  for (const auto& group : model.sequence_groups) {
    loader.transforms.push_back(
        {reader::TransformKind::kSparseHash, group.features.front(),
         1'000'003, 0});
  }
  loader.transforms.push_back(
      {reader::TransformKind::kDenseNormalize, "", 0.0, 1.0});
  return loader;
}

storage::StorageSchema MakePipelineSchema(
    const datagen::DatasetSpec& dataset) {
  storage::StorageSchema schema;
  schema.num_dense = dataset.num_dense;
  for (const auto& f : dataset.sparse) schema.sparse_names.push_back(f.name);
  return schema;
}

BatchConsumer::BatchConsumer(const train::ModelConfig& model,
                             const train::ClusterSpec& cluster,
                             const RecdConfig& config,
                             const train::ShapeScale& scale,
                             std::size_t max_trainer_batches)
    : trainer_(model, cluster, config.trainer, scale),
      batch_size_(config.batch_size),
      max_batches_(max_trainer_batches),
      num_gpus_(cluster.num_gpus) {}

void BatchConsumer::Consume(const reader::PreprocessedBatch& batch) {
  spc_sum_ += batch.SamplesPerSession();
  for (const auto& stats : batch.group_stats) {
    values_before_ += static_cast<double>(stats.values_before);
    values_after_ += static_cast<double>(stats.values_after);
  }
  if (iterations_ < max_batches_ && batch.batch_size == batch_size_) {
    const auto it = trainer_.SimulateIteration(batch);
    if (iterations_ == 0) {
      accum_ = it;
    } else {
      accum_.emb_s += it.emb_s;
      accum_.gemm_s += it.gemm_s;
      accum_.a2a_exposed_s += it.a2a_exposed_s;
      accum_.other_s += it.other_s;
      accum_.a2a_raw_s += it.a2a_raw_s;
      accum_.sdd_bytes += it.sdd_bytes;
      accum_.emb_a2a_bytes += it.emb_a2a_bytes;
      accum_.lookups += it.lookups;
      accum_.flops += it.flops;
      accum_.flops_logical += it.flops_logical;
      accum_.mem_util_max = std::max(accum_.mem_util_max, it.mem_util_max);
      accum_.mem_util_avg += it.mem_util_avg;
      accum_.dynamic_mem_bytes =
          std::max(accum_.dynamic_mem_bytes, it.dynamic_mem_bytes);
    }
    ++iterations_;
  }
}

void BatchConsumer::Finalize(const reader::StageTimes& times,
                             const reader::ReaderIoStats& io,
                             PipelineResult& result) const {
  const std::size_t batches = io.batches_produced;
  result.batch_samples_per_session =
      batches == 0 ? 0.0 : spc_sum_ / static_cast<double>(batches);
  result.mean_dedupe_factor =
      values_after_ == 0 ? 1.0 : values_before_ / values_after_;
  result.reader_times = times;
  result.reader_io = io;
  // wall_s spans the whole scan as the consumer saw it, so the few
  // iterations the trainer sim runs between batches are included when
  // a threaded reader prefetches through them: the metric is
  // pipeline-as-consumed throughput, not isolated reader speed. Compare
  // rows/s across num_threads values with
  // bench_fig10_reader_breakdown's scaling section (a tight drain
  // loop), not across differently-shaped Run() configs.
  result.reader_rows_per_second =
      times.wall_s == 0 ? 0.0
                        : static_cast<double>(io.rows_read) / times.wall_s;

  if (iterations_ > 0) {
    auto accum = accum_;
    const double inv = 1.0 / static_cast<double>(iterations_);
    accum.emb_s *= inv;
    accum.gemm_s *= inv;
    accum.a2a_exposed_s *= inv;
    accum.other_s *= inv;
    accum.a2a_raw_s *= inv;
    accum.sdd_bytes *= inv;
    accum.emb_a2a_bytes *= inv;
    accum.lookups *= inv;
    accum.flops *= inv;
    accum.flops_logical *= inv;
    accum.mem_util_avg *= iterations_ > 1 ? inv : 1.0;
    accum.qps = accum.global_batch_rows / accum.total_s();
    accum.achieved_flops_per_gpu =
        accum.flops / accum.total_s() / static_cast<double>(num_gpus_);
    accum.logical_flops_per_gpu =
        accum.flops_logical / accum.total_s() /
        static_cast<double>(num_gpus_);
    result.trainer = accum;
    result.trainer_qps = accum.qps;
  }
}

PipelineRunner::PipelineRunner(datagen::DatasetSpec dataset,
                               train::ModelConfig model,
                               train::ClusterSpec cluster,
                               PipelineOptions options)
    : dataset_(std::move(dataset)),
      model_(std::move(model)),
      cluster_(cluster),
      options_(options) {
  ValidatePipelineOptions(options_);
  datagen::TrafficGenerator generator(dataset_);
  traffic_ = generator.Generate(options_.num_samples);
  samples_ = etl::JoinLogs(traffic_.features, traffic_.events);
}

PipelineResult PipelineRunner::Run(const RecdConfig& config) {
  PipelineResult result;

  // One pool drives every parallel stage; absent (num_threads <= 1) the
  // stages take their original single-threaded paths.
  std::optional<common::ThreadPool> pool_storage;
  common::ThreadPool* pool = nullptr;
  if (options_.num_threads > 1) {
    pool_storage.emplace(options_.num_threads);
    pool = &*pool_storage;
  }

  // ---- O1: Scribe sharding + compression. ----------------------------
  scribe::ScribeCluster scribe_cluster(
      options_.num_scribe_shards,
      config.shard_by_session ? scribe::ShardKeyPolicy::kSessionId
                              : scribe::ShardKeyPolicy::kRandomHash);
  for (const auto& log : traffic_.features) {
    scribe_cluster.LogFeature(log);
  }
  for (const auto& log : traffic_.events) scribe_cluster.LogEvent(log);
  scribe_cluster.Flush(pool);
  result.scribe_compression_ratio =
      scribe_cluster.totals().compression_ratio();

  // ---- ETL: join (pre-joined in ctor) + downsample (§7) + O2 ----------
  // clustering + landing.
  std::vector<datagen::Sample> samples = samples_;
  if (config.downsample != etl::DownsampleMode::kNone) {
    samples = etl::Downsample(samples, config.downsample,
                              config.downsample_keep_rate, dataset_.seed,
                              pool);
  }
  if (config.cluster_by_session) etl::ClusterBySession(samples, pool);
  result.samples_per_session = etl::MeanSamplesPerSession(samples);
  auto partitions =
      etl::PartitionByCount(std::move(samples), options_.samples_per_partition);

  const auto schema = MakePipelineSchema(dataset_);
  storage::BlobStore store;
  storage::WriterOptions wopts;
  wopts.rows_per_stripe = options_.rows_per_stripe;
  wopts.pool = pool;
  const auto landed =
      storage::LandTable(store, "table", schema, partitions, wopts, pool);
  result.storage_compression_ratio = landed.compression_ratio();
  result.stored_bytes = landed.stored_bytes;

  // ---- Reader tier (O3/O4) feeding the trainer (O5-O7). ---------------
  train::ModelConfig model = model_;
  if (config.emb_dim_override.has_value()) {
    model.emb_dim = *config.emb_dim_override;
  }
  auto loader = MakePipelineLoader(model, config);

  // The land is the pool's last job; release its threads before the
  // reader spawns its own workers so the host is not oversubscribed
  // with idle ThreadPool threads during the read/train phase.
  pool = nullptr;
  pool_storage.reset();

  loader.num_workers = options_.num_threads;
  reader::ReaderOptions ropts;
  ropts.use_ikjt = config.use_ikjt;
  reader::ReaderPool rdr(store, landed.table, loader, ropts);

  BatchConsumer consumer(model, cluster_, config, options_.trainer_scale,
                         options_.max_trainer_batches);
  while (auto batch = rdr.NextBatch()) consumer.Consume(*batch);
  consumer.Finalize(rdr.times(), rdr.io(), result);
  return result;
}

}  // namespace recd::core
