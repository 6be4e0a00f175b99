#include "core/pipeline.h"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/channel.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "stream/stream_scribe.h"
#include "stream/tailing_reader.h"
#include "stream/traffic_source.h"
#include "train/reference.h"

namespace recd::core {
namespace {

// Hand-off depths between the stage threads.
constexpr std::size_t kMessageChannelCapacity = 1024;  // source→scribe→etl
constexpr std::size_t kWindowChannelCapacity = 4;      // etl→reader
constexpr std::size_t kPrefetchBatches = 4;            // reader→consumer

// The executed trainer's fixed settings: every Run starts from the same
// weights, so first-step losses compare across configs.
constexpr std::uint64_t kTrainerSeed = 42;
constexpr float kTrainerLr = 0.05f;

/// Sum of one comm series over every rank and exchange tag.
double SeriesTotal(const obs::MetricsSnapshot& snapshot,
                   const std::string& name) {
  double total = 0;
  for (const auto& e : snapshot.entries) {
    if (e.name == name) total += static_cast<double>(e.value);
  }
  return total;
}

/// The trainer side of PipelineResult, from the stream of preprocessed
/// batches: samples/session within batches and the measured dedupe
/// factor over every batch, plus the first `max_trainer_batches` full
/// batches kept for the executed trainer.
class BatchConsumer {
 public:
  BatchConsumer(std::size_t batch_size, std::size_t max_trainer_batches)
      : batch_size_(batch_size), max_batches_(max_trainer_batches) {}

  void Consume(reader::PreprocessedBatch batch);

  /// Writes the consumed measurements plus the reader's final stats
  /// into `result` (batch_samples_per_session, mean_dedupe_factor,
  /// reader_times/io/rows-per-second).
  void Finalize(const reader::StageTimes& times,
                const reader::ReaderIoStats& io,
                PipelineResult& result) const;

  /// Steps the kept batches on a fresh DistributedTrainer (`model`
  /// carries any emb_dim_override) and writes the trainer fields of
  /// `result`. The first step is an untimed warm-up.
  void Train(const train::ModelConfig& model, bool recd,
             std::size_t num_ranks, PipelineResult& result) const;

 private:
  std::size_t batch_size_;
  std::size_t max_batches_;
  double spc_sum_ = 0;
  double values_before_ = 0;
  double values_after_ = 0;
  std::vector<reader::PreprocessedBatch> kept_;
};

void BatchConsumer::Consume(reader::PreprocessedBatch batch) {
  spc_sum_ += batch.SamplesPerSession();
  for (const auto& stats : batch.group_stats) {
    values_before_ += static_cast<double>(stats.values_before);
    values_after_ += static_cast<double>(stats.values_after);
  }
  if (kept_.size() < max_batches_ && batch.batch_size == batch_size_) {
    kept_.push_back(std::move(batch));
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
  // Scribe/ETL/land time it waits on.
  result.reader_rows_per_second =
      times.wall_s == 0 ? 0.0
                        : static_cast<double>(io.rows_read) / times.wall_s;
}

void BatchConsumer::Train(const train::ModelConfig& model, bool recd,
                          std::size_t num_ranks,
                          PipelineResult& result) const {
  if (kept_.empty()) return;
  train::DistributedTrainer trainer(
      model, train::DistributedConfig{.num_ranks = num_ranks,
                                      .recd = recd,
                                      .lr = kTrainerLr,
                                      .seed = kTrainerSeed});
  result.trainer_first_loss = trainer.Step(kept_.front());
  const double exchange_us_before =
      SeriesTotal(trainer.comm_metrics().Snapshot(), "comm.exchange_us");
  std::vector<double> step_s;
  for (std::size_t i = 1; i < kept_.size(); ++i) {
    common::Stopwatch sw;
    sw.Start();
    (void)trainer.Step(kept_[i]);
    sw.Stop();
    step_s.push_back(sw.seconds());
  }
  result.trainer_exchange = trainer.TotalCounters();
  if (step_s.empty()) return;
  std::sort(step_s.begin(), step_s.end());
  const std::size_t mid = step_s.size() / 2;
  result.trainer_step_s = step_s.size() % 2 == 1
                              ? step_s[mid]
                              : (step_s[mid - 1] + step_s[mid]) / 2;
  result.trainer_qps =
      static_cast<double>(batch_size_) / result.trainer_step_s;
  result.trainer_exchange_us =
      (SeriesTotal(trainer.comm_metrics().Snapshot(), "comm.exchange_us") -
       exchange_us_before) /
      static_cast<double>(num_ranks * step_s.size());
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
  if (options.trainer_ranks == 0 ||
      train::kGradChunks % options.trainer_ranks != 0) {
    throw std::invalid_argument(
        "PipelineOptions: trainer_ranks must divide train::kGradChunks (" +
        std::to_string(train::kGradChunks) + ")");
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
                               PipelineOptions options)
    : dataset_(std::move(dataset)),
      model_(std::move(model)),
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

  BatchConsumer consumer(config.batch_size, options_.max_trainer_batches);
  try {
    while (auto batch = batches.Pop()) {
      if (options_.batch_observer) options_.batch_observer(*batch);
      consumer.Consume(std::move(*batch));
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

  consumer.Train(model, config.use_ikjt, options_.trainer_ranks, result);
  return result;
}

}  // namespace recd::core
