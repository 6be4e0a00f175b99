// ReaderPool: the reader (paper Fig 5) as a DPP-style fleet (Zhao et
// al.'s distributed preprocessing tier, scaled down to one node).
//
// Construction builds one scan plan: every table file is opened up
// front (footers only) and its stripes are listed in scan order. Bytes
// are counted analytically (open_bytes + per-stripe StripeBytes), so
// the io() counters do not depend on who reads which stripe. Two
// drivers run the same two stage functions over that plan — FillStripe
// and BatchPipeline::ConvertAndProcess:
//
//   num_workers <= 1: NextBatch fills stripes, cuts a batch and
//   converts/processes it inline on the caller's thread. No threads, so
//   the caller's wait for a batch is exactly the reader's cost.
//
//   num_workers = N > 1: a pipeline of threads,
//
//   fill workers (xN)      assembler (x1)        convert workers (xN)
//   claim stripe tickets → reassemble stripes  → Convert + Process
//   fetch/decrypt/        in scan order, cut     per batch, push into
//   decompress/decode     batch_size row runs    the prefetch queue
//
//   Every hand-off is a bounded common::Channel, so a fast stage blocks
//   instead of buffering unboundedly (backpressure), and the queue
//   ahead of the consumer prefetches 2 x N batches.
//
// Determinism is the hard invariant: stripes are claimed by globally
// ordered ticket and reassembled in ticket order before batch cutting,
// and batches are re-ordered by sequence number before NextBatch hands
// them out. Any worker count therefore yields the byte-identical batch
// stream and identical io() counters; only wall-clock timings differ.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/channel.h"
#include "common/stopwatch.h"
#include "datagen/sample.h"
#include "obs/metrics.h"
#include "reader/batch.h"
#include "reader/batch_pipeline.h"
#include "reader/dataloader.h"
#include "storage/blob_store.h"
#include "storage/table.h"

namespace recd::reader {

class ReaderPool {
 public:
  /// Opens every table file (footers are scanned up front to build the
  /// stripe plan). With num_workers > 1 it also starts the workers, and
  /// prefetching begins immediately. Throws std::out_of_range if the
  /// config names a feature missing from the table schema,
  /// std::invalid_argument on batch_size 0.
  ReaderPool(storage::BlobStore& store, const storage::Table& table,
             DataLoaderConfig config, ReaderOptions options = {});

  /// Joins any workers; safe to call with batches still in flight.
  ~ReaderPool();

  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;

  /// Next batch in scan order, or nullopt at end of dataset. The final
  /// partial batch (fewer than batch_size rows) is emitted. Rethrows the
  /// first worker exception, if any.
  [[nodiscard]] std::optional<PreprocessedBatch> NextBatch();

  [[nodiscard]] std::size_t num_workers() const { return workers_; }

  /// Aggregated stage times. fill/convert/process are CPU seconds
  /// summed across workers. wall_s is the stage sum for the inline
  /// driver and the real elapsed time of the scan for the threaded one.
  /// Stable once NextBatch has returned nullopt.
  [[nodiscard]] const StageTimes& times() const { return times_; }
  /// Io counters, a projection of the pool's metrics() registry (§14:
  /// the registry is the single source of truth). Identical for any
  /// worker count.
  [[nodiscard]] ReaderIoStats io() const;

  /// The pool's metric registry (`reader.*` series).
  [[nodiscard]] const obs::Registry& metrics() const { return metrics_; }

 private:
  struct StripeRef {
    std::size_t file = 0;
    std::size_t stripe = 0;
  };
  struct StripeRows {
    std::size_t seq = 0;
    std::vector<datagen::Sample> rows;
  };
  struct BatchTask {
    std::size_t seq = 0;
    std::vector<datagen::Sample> rows;
  };
  struct BatchOut {
    std::size_t seq = 0;
    PreprocessedBatch batch;
  };

  /// Fill (paper Fig 5) of plan_[seq]: fetch + decrypt + decompress +
  /// decode, under the `reader/fill` span. Adds the stage seconds to
  /// `times` and the stripe's bytes and rows to `io`.
  [[nodiscard]] std::vector<datagen::Sample> FillStripe(
      std::size_t seq, StageTimes& times, ReaderIoStats& io) const;
  /// Adds a driver's io counts to the registry counters.
  void AddIo(const ReaderIoStats& io);

  std::optional<PreprocessedBatch> NextBatchInline();
  void FillWorker();
  void AssemblerLoop();
  void ConvertWorker();
  void Fail(std::exception_ptr error);

  const storage::Table* table_;
  DataLoaderConfig config_;
  std::size_t workers_ = 1;
  storage::ReadProjection projection_;
  BatchPipeline pipeline_;
  std::vector<storage::ColumnFileReader> files_;
  std::vector<StripeRef> plan_;  // stripes in scan order

  // Next stripe ticket: claimed by the fill workers, or advanced by the
  // inline driver.
  std::atomic<std::size_t> next_stripe_{0};

  // ---- Inline driver (num_workers <= 1). ----------------------------
  std::deque<datagen::Sample> buffer_;  // filled rows awaiting cutting

  // ---- Threaded driver (num_workers > 1). ---------------------------
  std::atomic<std::size_t> fill_live_{0};
  std::atomic<std::size_t> convert_live_{0};

  std::optional<common::Channel<StripeRows>> stripe_channel_;
  std::optional<common::Channel<BatchTask>> task_channel_;
  std::optional<common::Channel<BatchOut>> batch_channel_;

  std::vector<std::thread> threads_;

  // Consumer-side reorder buffer: batches completed out of order wait
  // here until their sequence number comes up.
  std::map<std::size_t, PreprocessedBatch> reorder_;
  std::size_t next_batch_seq_ = 0;
  bool exhausted_ = false;

  std::mutex stats_mutex_;  // guards times_ merges from workers
  StageTimes times_;
  common::Stopwatch wall_;

  // Io counters: registry-backed; drivers add their batched locals
  // (atomic counters, no stats_mutex_ needed).
  obs::Registry metrics_;
  obs::Counter& bytes_read_ = metrics_.GetCounter("reader.bytes_read");
  obs::Counter& bytes_sent_ = metrics_.GetCounter("reader.bytes_sent");
  obs::Counter& rows_read_ = metrics_.GetCounter("reader.rows_read");
  obs::Counter& batches_produced_ =
      metrics_.GetCounter("reader.batches_produced");
  obs::Counter& sparse_elements_processed_ =
      metrics_.GetCounter("reader.sparse_elements_processed");

  std::mutex error_mutex_;
  std::exception_ptr error_;
};

}  // namespace recd::reader
