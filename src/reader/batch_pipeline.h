// BatchPipeline: the Convert and Process stages of a reader (paper
// Fig 5), factored out of the scan loop so every reader driver —
// ReaderPool's inline and threaded drivers and the streaming
// stream::TailingReader — runs the *same* code on a batch's rows, with
// the same spans, stage timers and io counts. That is what makes
// "N workers produce byte-identical batches and counters" a structural
// property instead of a test-enforced coincidence.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "datagen/sample.h"
#include "reader/batch.h"
#include "reader/dataloader.h"
#include "storage/column_file.h"

namespace recd::reader {

struct ReaderOptions {
  /// RecD on: dedup groups convert to IKJTs (O3) and transforms run over
  /// deduplicated slices (O4). Off: every feature converts to plain KJT.
  bool use_ikjt = true;
};

struct StageTimes {
  double fill_s = 0;
  double convert_s = 0;
  double process_s = 0;
  /// Wall-clock seconds of the scan as the consumer saw it. ReaderPool's
  /// inline driver and stream::TailingReader run the stages back to back
  /// on one thread, so they set total_s(); threaded readers set real
  /// elapsed time, since their per-stage sums count CPU seconds across
  /// workers that overlap.
  double wall_s = 0;
  [[nodiscard]] double total_s() const {
    return fill_s + convert_s + process_s;
  }
};

struct ReaderIoStats {
  std::size_t bytes_read = 0;  // compressed bytes fetched from storage
  std::size_t bytes_sent = 0;  // preprocessed batch bytes to trainers
  std::size_t rows_read = 0;
  std::size_t batches_produced = 0;
  std::size_t sparse_elements_processed = 0;  // transform work items (O4)
};

/// Batch cutting: moves the first `take` rows of `buffer` into a batch's
/// row list.
[[nodiscard]] std::vector<datagen::Sample> TakeRows(
    std::deque<datagen::Sample>& buffer, std::size_t take);

class BatchPipeline {
 public:
  /// Holds references: `schema` and `config` must outlive the pipeline
  /// (its owners keep them as members).
  BatchPipeline(const storage::StorageSchema& schema,
                const DataLoaderConfig& config, bool use_ikjt);

  /// Convert stage (O3): rows become KJTs / IKJTs / dense tensors.
  /// Pure: depends only on `rows`, so any thread may convert any batch.
  [[nodiscard]] PreprocessedBatch Convert(
      std::vector<datagen::Sample> rows) const;

  /// Process stage (O4): preprocessing transforms, run over
  /// deduplicated slices where an IKJT carries the feature. Returns the
  /// number of sparse elements the transforms touched.
  std::size_t Process(PreprocessedBatch& batch) const;

  /// Convert then Process one batch under the `reader/convert` and
  /// `reader/process` spans, adding the stage seconds to `times` and
  /// the batch's sparse_elements_processed / bytes_sent /
  /// batches_produced to `io`. Every reader driver emits its batches
  /// through this one function.
  [[nodiscard]] PreprocessedBatch ConvertAndProcess(
      std::vector<datagen::Sample> rows, StageTimes& times,
      ReaderIoStats& io) const;

  /// The storage projection covering every feature the config consumes.
  /// Throws std::out_of_range if the config names an unknown feature.
  [[nodiscard]] static storage::ReadProjection BuildProjection(
      const storage::StorageSchema& schema, const DataLoaderConfig& config);

 private:
  const storage::StorageSchema* schema_;
  const DataLoaderConfig* config_;
  bool use_ikjt_;
};

}  // namespace recd::reader
