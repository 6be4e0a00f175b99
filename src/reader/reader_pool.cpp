#include "reader/reader_pool.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"
#include "storage/column_file.h"

namespace recd::reader {

ReaderPool::ReaderPool(storage::BlobStore& store,
                       const storage::Table& table, DataLoaderConfig config,
                       ReaderOptions options)
    : table_(&table),
      config_(std::move(config)),
      workers_(std::max<std::size_t>(1, config_.num_workers)),
      projection_(BatchPipeline::BuildProjection(table_->schema, config_)),
      pipeline_(table_->schema, config_, options.use_ikjt) {
  if (config_.batch_size == 0) {
    throw std::invalid_argument("ReaderPool: batch_size must be positive");
  }

  // Scan plan: open every file up front (footers only) and list stripes
  // in scan order. Ticket seq == position in this plan.
  for (const auto& partition : table_->partitions) {
    for (const auto& name : partition.files) {
      files_.emplace_back(store, name);
      const std::size_t f = files_.size() - 1;
      bytes_read_.Add(static_cast<std::int64_t>(files_[f].open_bytes()));
      for (std::size_t s = 0; s < files_[f].num_stripes(); ++s) {
        plan_.push_back({f, s});
      }
    }
  }
  if (workers_ <= 1) return;

  stripe_channel_.emplace(std::max<std::size_t>(2, workers_));
  task_channel_.emplace(2 * workers_);
  batch_channel_.emplace(2 * workers_);

  fill_live_.store(workers_);
  convert_live_.store(workers_);
  wall_.Start();
  threads_.reserve(2 * workers_ + 1);
  for (std::size_t w = 0; w < workers_; ++w) {
    threads_.emplace_back([this] { FillWorker(); });
  }
  threads_.emplace_back([this] { AssemblerLoop(); });
  for (std::size_t w = 0; w < workers_; ++w) {
    threads_.emplace_back([this] { ConvertWorker(); });
  }
}

ReaderPool::~ReaderPool() {
  if (workers_ <= 1) return;
  // Unblock every stage; workers observe the closed channels and exit.
  stripe_channel_->Close();
  task_channel_->Close();
  batch_channel_->Close();
  for (auto& t : threads_) t.join();
}

void ReaderPool::Fail(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_) error_ = std::move(error);
  }
  stripe_channel_->Close();
  task_channel_->Close();
  batch_channel_->Close();
}

std::vector<datagen::Sample> ReaderPool::FillStripe(std::size_t seq,
                                                    StageTimes& times,
                                                    ReaderIoStats& io) const {
  // Fill (paper §6.3: "fetching data from Tectonic and decrypting,
  // decompressing, and decoding bytes to form rows"); Convert starts
  // when rows become tensors.
  RECD_TRACE_SCOPE("reader/fill");
  common::Stopwatch sw;
  sw.Start();
  const auto& ref = plan_[seq];
  const auto& file = files_[ref.file];
  io.bytes_read += file.StripeBytes(ref.stripe, projection_);
  auto raw = file.FetchStripe(ref.stripe, projection_);
  io.rows_read += raw.num_rows;
  auto rows = storage::DecodeRawStripe(table_->schema, raw, projection_);
  sw.Stop();
  times.fill_s += sw.seconds();
  return rows;
}

void ReaderPool::AddIo(const ReaderIoStats& io) {
  const auto add = [](obs::Counter& c, std::size_t v) {
    c.Add(static_cast<std::int64_t>(v));
  };
  add(bytes_read_, io.bytes_read);
  add(bytes_sent_, io.bytes_sent);
  add(rows_read_, io.rows_read);
  add(batches_produced_, io.batches_produced);
  add(sparse_elements_processed_, io.sparse_elements_processed);
}

std::optional<PreprocessedBatch> ReaderPool::NextBatchInline() {
  ReaderIoStats io;
  while (buffer_.size() < config_.batch_size &&
         next_stripe_ < plan_.size()) {
    for (auto& row : FillStripe(next_stripe_++, times_, io)) {
      buffer_.push_back(std::move(row));
    }
  }
  std::optional<PreprocessedBatch> batch;
  if (!buffer_.empty()) {
    const std::size_t take = std::min(buffer_.size(), config_.batch_size);
    batch = pipeline_.ConvertAndProcess(TakeRows(buffer_, take), times_, io);
  }
  AddIo(io);
  // One thread runs the stages back to back: their sum is the wall time.
  times_.wall_s = times_.total_s();
  return batch;
}

void ReaderPool::FillWorker() {
  StageTimes times;
  ReaderIoStats io;
  try {
    for (;;) {
      const std::size_t seq =
          next_stripe_.fetch_add(1, std::memory_order_relaxed);
      if (seq >= plan_.size()) break;
      // The stage timer brackets the work, not the channel wait, so
      // fill_s counts CPU seconds the way the inline driver does.
      StripeRows out;
      out.seq = seq;
      out.rows = FillStripe(seq, times, io);
      if (!stripe_channel_->Push(std::move(out))) break;  // shutdown
    }
  } catch (...) {
    Fail(std::current_exception());
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    times_.fill_s += times.fill_s;
  }
  AddIo(io);
  if (fill_live_.fetch_sub(1) == 1) stripe_channel_->Close();
}

void ReaderPool::AssemblerLoop() {
  // Reassemble stripes in ticket order, accumulate rows, and cut
  // batch_size runs — exactly the batch boundaries the inline driver
  // produces. Cheap (moves only), so one thread suffices.
  std::map<std::size_t, std::vector<datagen::Sample>> pending;
  std::size_t next_seq = 0;
  std::deque<datagen::Sample> buffer;
  std::size_t batch_seq = 0;
  bool aborted = false;

  const auto emit = [&](std::size_t take) {
    BatchTask task;
    task.seq = batch_seq++;
    task.rows = TakeRows(buffer, take);
    if (!task_channel_->Push(std::move(task))) aborted = true;
  };

  while (!aborted) {
    auto item = stripe_channel_->Pop();
    if (!item.has_value()) break;
    pending.emplace(item->seq, std::move(item->rows));
    while (!pending.empty() && pending.begin()->first == next_seq) {
      for (auto& row : pending.begin()->second) {
        buffer.push_back(std::move(row));
      }
      pending.erase(pending.begin());
      ++next_seq;
      while (!aborted && buffer.size() >= config_.batch_size) {
        emit(config_.batch_size);
      }
    }
  }
  // Final partial batch, emitted once the scan ends.
  if (!aborted && !buffer.empty()) emit(buffer.size());
  task_channel_->Close();
}

void ReaderPool::ConvertWorker() {
  StageTimes times;
  ReaderIoStats io;
  try {
    for (;;) {
      auto task = task_channel_->Pop();
      if (!task.has_value()) break;
      BatchOut out;
      out.seq = task->seq;
      out.batch =
          pipeline_.ConvertAndProcess(std::move(task->rows), times, io);
      if (!batch_channel_->Push(std::move(out))) break;  // shutdown
    }
  } catch (...) {
    Fail(std::current_exception());
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    times_.convert_s += times.convert_s;
    times_.process_s += times.process_s;
  }
  AddIo(io);
  if (convert_live_.fetch_sub(1) == 1) batch_channel_->Close();
}

std::optional<PreprocessedBatch> ReaderPool::NextBatch() {
  if (workers_ <= 1) return NextBatchInline();
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (error_) {
        auto error = error_;
        std::rethrow_exception(error);
      }
    }
    // Hand out the next in-order batch if it already arrived.
    const auto it = reorder_.find(next_batch_seq_);
    if (it != reorder_.end()) {
      PreprocessedBatch batch = std::move(it->second);
      reorder_.erase(it);
      ++next_batch_seq_;
      return batch;
    }
    auto out = batch_channel_->Pop();
    if (!out.has_value()) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (error_) std::rethrow_exception(error_);
      if (!exhausted_) {
        exhausted_ = true;
        wall_.Stop();
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        times_.wall_s = wall_.seconds();
      }
      return std::nullopt;
    }
    reorder_.emplace(out->seq, std::move(out->batch));
  }
}

ReaderIoStats ReaderPool::io() const {
  const auto u = [](const obs::Counter& c) {
    return static_cast<std::size_t>(c.Value());
  };
  ReaderIoStats io;
  io.bytes_read = u(bytes_read_);
  io.bytes_sent = u(bytes_sent_);
  io.rows_read = u(rows_read_);
  io.batches_produced = u(batches_produced_);
  io.sparse_elements_processed = u(sparse_elements_processed_);
  return io;
}

}  // namespace recd::reader
