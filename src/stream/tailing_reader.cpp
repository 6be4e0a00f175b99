#include "stream/tailing_reader.h"

#include <stdexcept>
#include <utility>

#include "common/thread_pool.h"

namespace recd::stream {

TailingReader::TailingReader(storage::BlobStore& store,
                             storage::StorageSchema schema,
                             reader::DataLoaderConfig config,
                             reader::ReaderOptions options,
                             common::ThreadPool* pool, Sink sink)
    : store_(&store),
      schema_(std::move(schema)),
      config_(std::move(config)),
      projection_(reader::BatchPipeline::BuildProjection(schema_, config_)),
      pipeline_(schema_, config_, options.use_ikjt),
      pool_(pool),
      sink_(std::move(sink)) {
  if (config_.batch_size == 0) {
    throw std::invalid_argument(
        "TailingReader: batch_size must be positive");
  }
  wall_.Start();
}

bool TailingReader::Offer(const LandedWindow& window) {
  for (const auto& name : window.files) {
    // Fill (paper Fig 5): open the fresh file, then fetch + decrypt +
    // decompress + decode every stripe. Stripes decode concurrently on
    // the pool and reassemble in stripe order, and IO is accounted
    // analytically (open_bytes + per-stripe StripeBytes) exactly like
    // reader::ReaderPool — which is what keeps the stream's ReaderIoStats
    // identical to the batch reader's for any thread count.
    common::Stopwatch fill;
    fill.Start();
    storage::ColumnFileReader file(*store_, name);
    io_.bytes_read += file.open_bytes();
    const std::size_t stripes = file.num_stripes();
    std::vector<std::vector<datagen::Sample>> decoded(stripes);
    const auto read_one = [&](std::size_t s) {
      decoded[s] = file.ReadStripe(s, projection_);
    };
    if (pool_ != nullptr && stripes > 1) {
      pool_->ParallelFor(0, stripes, read_one);
    } else {
      for (std::size_t s = 0; s < stripes; ++s) read_one(s);
    }
    for (std::size_t s = 0; s < stripes; ++s) {
      io_.bytes_read += file.StripeBytes(s, projection_);
      io_.rows_read += decoded[s].size();
      for (auto& row : decoded[s]) buffer_.push_back(std::move(row));
    }
    fill.Stop();
    times_.fill_s += fill.seconds();

    while (buffer_.size() >= config_.batch_size) {
      if (!EmitBatch(config_.batch_size)) return false;
    }
  }
  return true;
}

bool TailingReader::Finish() {
  if (finished_) return true;
  finished_ = true;
  bool ok = true;
  if (!buffer_.empty()) ok = EmitBatch(buffer_.size());
  wall_.Stop();
  times_.wall_s = wall_.seconds();
  return ok;
}

bool TailingReader::EmitBatch(std::size_t take) {
  auto batch = pipeline_.ConvertAndProcess(reader::TakeRows(buffer_, take),
                                           times_, io_);
  return sink_ ? sink_(std::move(batch)) : true;
}

}  // namespace recd::stream
