#include "core/pipeline.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/channel.h"
#include "common/thread_pool.h"
#include "stream/stream_scribe.h"
#include "stream/tailing_reader.h"
#include "stream/traffic_source.h"
#include "train/model.h"

namespace recd::core {
namespace {

// Hand-off depths between the stage threads.
constexpr std::size_t kMessageChannelCapacity = 1024;  // source→scribe→etl
constexpr std::size_t kWindowChannelCapacity = 4;      // etl→reader
constexpr std::size_t kPrefetchBatches = 4;            // reader→trainer

/// Accumulates the trainer-side measurements of PipelineResult from the
/// stream of preprocessed batches: samples/session within batches,
/// measured dedupe factor, and the simulated training iterations.
class BatchConsumer {
 public:
  /// `model` must already carry any emb_dim_override.
  BatchConsumer(const train::ModelConfig& model,
                const train::ClusterSpec& cluster, const RecdConfig& config,
                const train::ShapeScale& scale,
                std::size_t max_trainer_batches);

  void Consume(const reader::PreprocessedBatch& batch);

  /// Writes the consumed measurements plus the reader's final stats
  /// into `result` (batch_samples_per_session, mean_dedupe_factor,
  /// reader_times/io/rows-per-second, trainer breakdown and QPS).
  void Finalize(const reader::StageTimes& times,
                const reader::ReaderIoStats& io,
                PipelineResult& result) const;

 private:
  train::TrainerSim trainer_;
  std::size_t batch_size_;
  std::size_t max_batches_;
  std::size_t num_gpus_;
  double spc_sum_ = 0;
  double values_before_ = 0;
  double values_after_ = 0;
  std::size_t iterations_ = 0;
  train::IterationBreakdown accum_;
};

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
  // The tailing reader runs its stages back to back on one thread, so
  // wall_s is their sum: reader work alone, without the upstream
  // Scribe/ETL/land time it waits on or the trainer sim's time between
  // batches.
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

}  // namespace

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
  if (options.window_ticks < 1) {
    throw std::invalid_argument(
        "PipelineOptions: window_ticks must be >= 1");
  }
  if (options.reorder_ticks < 0) {
    throw std::invalid_argument(
        "PipelineOptions: reorder_ticks must be >= 0");
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

PipelineRunner::PipelineRunner(datagen::DatasetSpec dataset,
                               train::ModelConfig model,
                               train::ClusterSpec cluster,
                               PipelineOptions options)
    : dataset_(std::move(dataset)),
      model_(std::move(model)),
      cluster_(cluster),
      options_(std::move(options)) {
  ValidatePipelineOptions(options_);
  datagen::TrafficGenerator generator(dataset_);
  traffic_ = generator.Generate(options_.num_samples);
}

PipelineResult PipelineRunner::Run(const RecdConfig& config) {
  PipelineResult result;

  // One pool drives the data-parallel work inside every stage; absent
  // (num_threads <= 1) the stages take their sequential paths. The
  // stage threads below are structural, not part of this budget.
  std::optional<common::ThreadPool> pool_storage;
  common::ThreadPool* pool = nullptr;
  if (options_.num_threads > 1) {
    pool_storage.emplace(options_.num_threads);
    pool = &*pool_storage;
  }

  stream::TrafficSource source(traffic_, options_.reorder_ticks,
                               dataset_.seed);
  const std::int64_t final_tick = source.final_tick();

  const auto schema = MakePipelineSchema(dataset_);

  train::ModelConfig model = model_;
  if (config.emb_dim_override.has_value()) {
    model.emb_dim = *config.emb_dim_override;
  }
  auto loader = MakePipelineLoader(model, config);

  stream::WindowedEtlOptions eopts;
  // Every timestamp is <= final_tick, so final_tick + 1 ticks already
  // make one window; clamping keeps WindowedEtl's window-end arithmetic
  // from overflowing under the "whole dataset" default.
  eopts.window_ticks = std::min(options_.window_ticks, final_tick + 1);
  eopts.allowed_lateness = options_.reorder_ticks;
  eopts.cluster_by_session = config.cluster_by_session;
  eopts.downsample = config.downsample;
  eopts.downsample_keep_rate = config.downsample_keep_rate;
  eopts.downsample_seed = dataset_.seed;
  eopts.samples_per_partition = options_.samples_per_partition;
  // Captured-dedupe stats always count over the model's IKJT groups
  // (independent of config.use_ikjt) so the metric stays comparable
  // between baseline and RecD runs of the same model.
  const auto dedup_loader =
      train::MakeDataLoaderConfig(model, config.batch_size,
                                  /*recd_enabled=*/true);
  for (const auto& group : dedup_loader.dedup_sparse_features) {
    std::vector<std::size_t> indices;
    indices.reserve(group.size());
    for (const auto& name : group) {
      indices.push_back(schema.FeatureIndex(name));
    }
    eopts.dedup_groups.push_back(std::move(indices));
  }

  storage::BlobStore store;
  storage::WriterOptions wopts;
  wopts.rows_per_stripe = options_.rows_per_stripe;
  wopts.pool = pool;

  common::Channel<stream::StreamMessage> scribe_in(kMessageChannelCapacity);
  common::Channel<stream::StreamMessage> etl_in(kMessageChannelCapacity);
  common::Channel<stream::LandedWindow> landed(kWindowChannelCapacity);
  common::Channel<reader::PreprocessedBatch> batches(kPrefetchBatches);

  stream::StreamScribe scribe(options_.num_scribe_shards,
                              config.shard_by_session
                                  ? scribe::ShardKeyPolicy::kSessionId
                                  : scribe::ShardKeyPolicy::kRandomHash,
                              options_.scribe_flush_every, pool);
  stream::WindowedEtl etl(eopts, store, "table", schema, wopts, pool,
                          [&landed](stream::LandedWindow w) {
                            return landed.Push(std::move(w));
                          });
  reader::ReaderOptions ropts;
  ropts.use_ikjt = config.use_ikjt;
  stream::TailingReader tail(store, schema, loader, ropts, pool,
                             [&batches](reader::PreprocessedBatch b) {
                               return batches.Push(std::move(b));
                             });

  // First stage exception wins; closing every channel unblocks the rest.
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto fail = [&](std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::move(e);
    }
    scribe_in.Close();
    etl_in.Close();
    landed.Close();
    batches.Close();
  };

  std::thread source_thread([&] {
    try {
      source.PumpTo(scribe_in);
    } catch (...) {
      fail(std::current_exception());
    }
  });
  std::thread scribe_thread([&] {
    try {
      while (auto message = scribe_in.Pop()) {
        scribe.Offer(*message);
        if (!etl_in.Push(std::move(*message))) break;
      }
      scribe.Finish();
    } catch (...) {
      fail(std::current_exception());
    }
    etl_in.Close();
  });
  std::thread etl_thread([&] {
    try {
      while (auto message = etl_in.Pop()) {
        if (!etl.Offer(*message)) break;
      }
      etl.Finish(final_tick);
    } catch (...) {
      fail(std::current_exception());
    }
    landed.Close();
  });
  std::thread reader_thread([&] {
    try {
      while (auto window = landed.Pop()) {
        if (!tail.Offer(*window)) break;
      }
      tail.Finish();
    } catch (...) {
      fail(std::current_exception());
    }
    batches.Close();
  });

  BatchConsumer consumer(model, cluster_, config, options_.trainer_scale,
                         options_.max_trainer_batches);
  try {
    while (auto batch = batches.Pop()) {
      if (options_.batch_observer) options_.batch_observer(*batch);
      consumer.Consume(*batch);
    }
  } catch (...) {
    fail(std::current_exception());
  }
  source_thread.join();
  scribe_thread.join();
  etl_thread.join();
  reader_thread.join();
  {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (error) std::rethrow_exception(error);
  }

  // ---- Stage counters. -----------------------------------------------
  result.scribe_compression_ratio =
      scribe.cluster().totals().compression_ratio();
  result.storage_compression_ratio =
      compress::CompressionRatio(etl.logical_bytes(), etl.stored_bytes());
  result.stored_bytes = etl.stored_bytes();
  result.samples_per_session =
      etl.distinct_sessions() == 0
          ? 0.0
          : static_cast<double>(etl.total_samples()) /
                static_cast<double>(etl.distinct_sessions());
  consumer.Finalize(tail.times(), tail.io(), result);

  // ---- Streaming counters. -------------------------------------------
  result.windows_landed = etl.windows().size();
  result.late_features = etl.late_features();
  result.late_events = etl.late_events();
  result.unjoined_features = etl.unjoined_features();
  result.scribe_incremental_flushes = scribe.incremental_flushes();
  result.freshness_lag_mean =
      etl.total_samples() == 0
          ? 0.0
          : etl.freshness_lag_sum() /
                static_cast<double>(etl.total_samples());
  std::size_t before = 0;
  std::size_t after = 0;
  for (const auto& w : etl.windows()) {
    before += w.dedup_values_before;
    after += w.dedup_values_after;
  }
  result.captured_dedupe_factor =
      after == 0 ? 1.0
                 : static_cast<double>(before) / static_cast<double>(after);
  result.windows = etl.windows();
  return result;
}

}  // namespace recd::core
