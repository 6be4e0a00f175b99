// End-to-end pipeline runner: datagen → Scribe → ETL → storage → reader
// tier → trainer (paper Fig 1), with every RecD optimization toggleable.
//
// One runner instance generates traffic once; each Run() replays it
// through the pipeline under a different RecdConfig so baseline and RecD
// measurements compare identical data (as the paper's clustered table
// "contains the same data as the baseline table"). By default the
// whole dataset lands as one ETL window with no arrival reordering;
// smaller windows and reordering model a production streaming ETL.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/characterize.h"
#include "datagen/generator.h"
#include "etl/etl.h"
#include "reader/batch_pipeline.h"
#include "scribe/scribe.h"
#include "storage/table.h"
#include "stream/windowed_etl.h"
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
/// construction by PipelineRunner): `num_scribe_shards`,
/// `samples_per_partition`, `rows_per_stripe` and `window_ticks` must
/// all be >= 1, and `reorder_ticks` >= 0. Zero used to surface as a
/// throw deep inside Run() (or, for a would-be zero-row stripe cut,
/// silent misbehavior); validating up front names the offending knob
/// instead.
struct PipelineOptions {
  std::size_t num_samples = 20'000;
  /// Trainer shape multipliers (see train::ShapeScale); benches use
  /// {8, 4} to restore paper magnitudes.
  train::ShapeScale trainer_scale;
  std::size_t num_scribe_shards = 8;
  std::size_t samples_per_partition = 10'000;
  std::size_t rows_per_stripe = 1024;
  std::size_t max_trainer_batches = 4;  // iterations averaged for QPS
  /// Worker threads for the data-parallel work inside every stage:
  /// Scribe flush, ETL clustering/downsampling, storage stripe encode,
  /// and the tailing reader's stripe fetch + decode. 1 = every stage
  /// runs its sequential path. Any value yields byte-identical sample
  /// data and identical non-timing PipelineResult counters — stages
  /// reassemble their outputs in scan order (docs/ARCHITECTURE.md §7).
  std::size_t num_threads = 1;
  /// Event-time ticks per ETL window. The default exceeds any dataset's
  /// span, so the whole dataset lands as one window: the batch pipeline.
  std::int64_t window_ticks = std::numeric_limits<std::int64_t>::max();
  /// Bound on source arrival reordering (0 = replay generation order).
  /// The ETL watermark waits exactly this long, so nothing drops late.
  std::int64_t reorder_ticks = 0;
  /// Messages between incremental full-block Scribe flushes (0 = flush
  /// only at end of stream).
  std::size_t scribe_flush_every = 4096;
  /// Diagnostic/test hook: observes every delivered batch on the
  /// consumer thread, in order, before the trainer sim sees it.
  std::function<void(const reader::PreprocessedBatch&)> batch_observer;
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
  // Streaming: windows, drops and freshness.
  std::size_t windows_landed = 0;
  std::size_t late_features = 0;     // arrived after their window closed
  std::size_t late_events = 0;       // outcome could no longer join
  std::size_t unjoined_features = 0;  // window closed before the outcome
  std::size_t scribe_incremental_flushes = 0;
  /// Mean ticks between a sample's event time and its window landing —
  /// the end-to-end freshness the window size buys (smaller = fresher).
  double freshness_lag_mean = 0;
  /// Value-weighted dedupe factor the windowed clustering made
  /// capturable (duplicates only count within a window — the
  /// window-size ↔ dedupe trade-off bench_stream_window_sweep measures).
  double captured_dedupe_factor = 1.0;
  std::vector<stream::WindowStats> windows;
};

/// Throws std::invalid_argument naming the first violated PipelineOptions
/// invariant (see the struct comment).
void ValidatePipelineOptions(const PipelineOptions& options);

/// The DataLoader configuration PipelineRunner::Run derives from a model
/// + RecdConfig: batch size, IKJT groups, and the representative
/// preprocessing transforms (hash the first feature of every dedup-able
/// group, normalize dense). Public so other drivers of the reader tier
/// (the serving stack, the end-to-end benchmark) build the exact same
/// loader. `model` must already carry any emb_dim_override.
[[nodiscard]] reader::DataLoaderConfig MakePipelineLoader(
    const train::ModelConfig& model, const RecdConfig& config);

/// The storage schema the pipeline lands a dataset under (dense width +
/// every sparse feature, in spec order).
[[nodiscard]] storage::StorageSchema MakePipelineSchema(
    const datagen::DatasetSpec& dataset);

/// The Fig-1 pipeline as a flow of stages, each on its own thread,
/// connected by bounded common::Channel hand-offs:
///
///   TrafficSource ─► StreamScribe ─► WindowedEtl ─► TailingReader ─► trainer
///        (pump)        (log bus)      (windowed       (tailing         (Run's
///                                      land)           batches)        thread)
///
/// Backpressure runs end to end: a slow trainer stalls the reader, a
/// slow land stalls the ETL buffer, all the way back to the source. The
/// stage threads are structural; PipelineOptions::num_threads sizes
/// the one common::ThreadPool that parallelizes the work *inside*
/// stages. Every stage is a pure function of its input sequence, so a
/// given (dataset, options, config) gives identical results for any
/// num_threads (docs/ARCHITECTURE.md §8).
class PipelineRunner {
 public:
  /// Generates traffic once; each Run replays it under a different
  /// RecdConfig over identical data. Throws std::invalid_argument if
  /// `options` violates an invariant (ValidatePipelineOptions).
  PipelineRunner(datagen::DatasetSpec dataset, train::ModelConfig model,
                 train::ClusterSpec cluster, PipelineOptions options = {});

  /// Runs the full pipeline under `config`. Deterministic: identical
  /// configs give identical results.
  [[nodiscard]] PipelineResult Run(const RecdConfig& config);

  [[nodiscard]] const datagen::DatasetSpec& dataset() const {
    return dataset_;
  }
  [[nodiscard]] const train::ModelConfig& model() const { return model_; }

 private:
  datagen::DatasetSpec dataset_;
  train::ModelConfig model_;
  train::ClusterSpec cluster_;
  PipelineOptions options_;

  datagen::TrafficGenerator::Traffic traffic_;
};

}  // namespace recd::core
