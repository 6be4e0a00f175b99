// TailingReader: the streaming reader tier — discovers freshly landed
// partitions and feeds the trainer while later windows are still being
// written.
//
// The batch reader::ReaderPool opens a finished table up front; a
// production reader fleet instead tails the table as the periodic ETL
// lands partition after partition (Zhao et al., "Understanding Data
// Storage and Ingestion for Large-Scale Deep Recommendation Model
// Training"). TailingReader runs the same Fig-5 stages over each
// arriving window: Fill (open the new files, fetch + decrypt +
// decompress + decode their stripes — pool-parallel with ordered
// reassembly), then batch cutting, then Convert and Process through
// reader::BatchPipeline::ConvertAndProcess, the function every reader
// driver emits its batches through (same spans, timers and io counts).
//
// Batch cutting is continuous across windows: leftover rows from one
// window wait for the next (exactly as the batch reader carries rows
// across partition boundaries), and only end-of-stream flushes a final
// partial batch. Together with the analytic per-stripe byte accounting
// this makes the one-whole-window stream deliver the byte-identical
// batch stream — and identical ReaderIoStats — of the batch reader
// (docs/ARCHITECTURE.md §8).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <vector>

#include "datagen/sample.h"
#include "reader/batch.h"
#include "reader/batch_pipeline.h"
#include "reader/dataloader.h"
#include "storage/blob_store.h"
#include "storage/column_file.h"
#include "stream/windowed_etl.h"

namespace recd::common {
class ThreadPool;
}  // namespace recd::common

namespace recd::stream {

class TailingReader {
 public:
  /// The sink receives every preprocessed batch, in scan order, on the
  /// thread calling Offer/Finish (typically it pushes into the bounded
  /// prefetch channel ahead of the trainer); returning false aborts the
  /// stage. Throws std::out_of_range if the config names a feature
  /// missing from the schema, std::invalid_argument on batch_size 0.
  using Sink = std::function<bool(reader::PreprocessedBatch)>;

  TailingReader(storage::BlobStore& store, storage::StorageSchema schema,
                reader::DataLoaderConfig config,
                reader::ReaderOptions options, common::ThreadPool* pool,
                Sink sink);

  // Not copyable or movable: pipeline_ points into this object's own
  // schema_/config_ members.
  TailingReader(const TailingReader&) = delete;
  TailingReader& operator=(const TailingReader&) = delete;

  /// Reads the window's files in scan order and emits every full batch.
  /// Returns false once the sink rejected a batch (shutdown).
  bool Offer(const LandedWindow& window);

  /// End of stream: emits the final partial batch, if any.
  bool Finish();

  /// Aggregated stage times. The stages run back to back on the calling
  /// thread, so wall_s is their sum (set by Finish).
  [[nodiscard]] const reader::StageTimes& times() const { return times_; }
  [[nodiscard]] const reader::ReaderIoStats& io() const { return io_; }

 private:
  /// Converts and processes the first `take` buffered rows and hands
  /// the batch to the sink.
  bool EmitBatch(std::size_t take);

  storage::BlobStore* store_;
  storage::StorageSchema schema_;
  reader::DataLoaderConfig config_;
  storage::ReadProjection projection_;
  reader::BatchPipeline pipeline_;
  common::ThreadPool* pool_;
  Sink sink_;

  std::deque<datagen::Sample> buffer_;  // rows awaiting batch cutting
  reader::StageTimes times_;
  reader::ReaderIoStats io_;
  bool finished_ = false;
};

}  // namespace recd::stream
