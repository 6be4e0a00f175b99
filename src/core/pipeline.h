// End-to-end pipeline runner: datagen → Scribe → ETL → storage → reader
// tier → trainer (paper Fig 1), with every RecD optimization toggleable.
//
// One runner instance generates traffic once; each Run() replays it
// through the pipeline under a different RecdConfig so baseline and RecD
// measurements compare identical data (as the paper's clustered table
// "contains the same data as the baseline table").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/characterize.h"
#include "datagen/generator.h"
#include "etl/etl.h"
#include "reader/batch_pipeline.h"
#include "scribe/scribe.h"
#include "storage/table.h"
#include "train/trainer_sim.h"

namespace recd::core {

/// Which RecD optimizations are enabled (Table 1), plus the §7
/// dataset-thinning policy.
struct RecdConfig {
  bool shard_by_session = true;    // O1 (Scribe shard key)
  bool cluster_by_session = true;  // O2 (ETL clustering)
  bool use_ikjt = true;            // O3 (+O4: dedup preprocessing)
  /// §7 "Boosting Dedupe Factors": per-session downsampling preserves S
  /// where per-sample downsampling destroys it.
  etl::DownsampleMode downsample = etl::DownsampleMode::kNone;
  double downsample_keep_rate = 1.0;
  train::TrainerFlags trainer = train::TrainerFlags::Recd();  // O5-O7
  std::size_t batch_size = 2048;
  std::optional<std::size_t> emb_dim_override;  // Table 2's EMB D256 row

  [[nodiscard]] static RecdConfig Baseline(std::size_t batch_size) {
    RecdConfig c;
    c.shard_by_session = false;
    c.cluster_by_session = false;
    c.use_ikjt = false;
    c.trainer = train::TrainerFlags::Baseline();
    c.batch_size = batch_size;
    return c;
  }
  [[nodiscard]] static RecdConfig Full(std::size_t batch_size) {
    RecdConfig c;
    c.batch_size = batch_size;
    return c;
  }
};

/// Invariants (checked by ValidatePipelineOptions, enforced at
/// construction by PipelineRunner and stream::StreamPipelineRunner):
/// `num_scribe_shards`, `samples_per_partition`, and `rows_per_stripe`
/// must all be >= 1. Zero used to surface as a throw deep inside Run()
/// (or, for a would-be zero-row stripe cut, silent misbehavior);
/// validating up front names the offending knob instead.
struct PipelineOptions {
  std::size_t num_samples = 20'000;
  /// Trainer shape multipliers (see train::ShapeScale); benches use
  /// {8, 4} to restore paper magnitudes.
  train::ShapeScale trainer_scale;
  std::size_t num_scribe_shards = 8;
  std::size_t samples_per_partition = 10'000;
  std::size_t rows_per_stripe = 1024;
  std::size_t max_trainer_batches = 4;  // iterations averaged for QPS
  /// Worker threads for every parallel stage: Scribe flush, ETL
  /// clustering/downsampling, storage stripe encode, and the reader
  /// pool (reader::ReaderPool with this many workers). 1 = the
  /// single-threaded pipeline, with the reader's stages run inline on
  /// the consuming thread. Any value yields byte-identical sample
  /// data and identical non-timing PipelineResult counters — stages
  /// reassemble their outputs in scan order (docs/ARCHITECTURE.md §7).
  std::size_t num_threads = 1;
};

/// Everything the benchmarks report, measured in one pass.
struct PipelineResult {
  // O1: Scribe.
  double scribe_compression_ratio = 0;
  // O2 + storage.
  double storage_compression_ratio = 0;
  std::size_t stored_bytes = 0;
  double samples_per_session = 0;       // S in the landed table
  double batch_samples_per_session = 0; // within training batches
  // Readers.
  reader::StageTimes reader_times;
  reader::ReaderIoStats reader_io;
  double reader_rows_per_second = 0;
  // Dedup outcome.
  double mean_dedupe_factor = 0;  // across dedup groups, value-weighted
  // Trainer.
  train::IterationBreakdown trainer;
  double trainer_qps = 0;
};

/// Throws std::invalid_argument naming the first violated PipelineOptions
/// invariant (see the struct comment). Shared by the batch and streaming
/// runners so both reject bad knobs at construction.
void ValidatePipelineOptions(const PipelineOptions& options);

/// Accumulates the trainer-side measurements of PipelineResult from a
/// stream of preprocessed batches: samples/session within batches,
/// measured dedupe factor, and the simulated training iterations.
/// Factored out of PipelineRunner::Run so the streaming runner consumes
/// batches through the *same* code — identical batch streams then yield
/// identical counters by construction, not by parallel maintenance.
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

/// The DataLoader configuration PipelineRunner::Run derives from a model
/// + RecdConfig: batch size, IKJT groups, and the representative
/// preprocessing transforms (hash the first feature of every dedup-able
/// group, normalize dense). Factored out so the streaming runner feeds
/// its tailing readers the exact same loader — a precondition for the
/// streaming-equals-batch contract. `model` must already carry any
/// emb_dim_override.
[[nodiscard]] reader::DataLoaderConfig MakePipelineLoader(
    const train::ModelConfig& model, const RecdConfig& config);

/// The storage schema the pipeline lands a dataset under (dense width +
/// every sparse feature, in spec order). Shared by both runners for the
/// same reason as MakePipelineLoader: the streaming table must be
/// shaped exactly like the batch table by construction.
[[nodiscard]] storage::StorageSchema MakePipelineSchema(
    const datagen::DatasetSpec& dataset);

class PipelineRunner {
 public:
  /// Throws std::invalid_argument if `options` violates an invariant
  /// (ValidatePipelineOptions).
  PipelineRunner(datagen::DatasetSpec dataset, train::ModelConfig model,
                 train::ClusterSpec cluster, PipelineOptions options = {});

  /// Runs the full pipeline under `config`. Deterministic: identical
  /// configs give identical results.
  [[nodiscard]] PipelineResult Run(const RecdConfig& config);

  [[nodiscard]] const datagen::DatasetSpec& dataset() const {
    return dataset_;
  }
  [[nodiscard]] const train::ModelConfig& model() const { return model_; }

  /// The joined, un-clustered sample stream (for characterization).
  [[nodiscard]] const std::vector<datagen::Sample>& raw_samples() const {
    return samples_;
  }

 private:
  datagen::DatasetSpec dataset_;
  train::ModelConfig model_;
  train::ClusterSpec cluster_;
  PipelineOptions options_;

  datagen::TrafficGenerator::Traffic traffic_;
  std::vector<datagen::Sample> samples_;  // joined, inference order
};

}  // namespace recd::core
