// StreamScribe: tails the traffic stream into the sharded Scribe.
//
// A batch pipeline would have Scribe ingest every log and compress once
// at the end. A long-lived bus can't wait: its storage nodes compress
// buffered chunks periodically while traffic keeps arriving (paper
// §2.1: Scribe buffers "in memory and on disk" in bounded chunks).
// StreamScribe models that cadence — every `flush_every_messages`
// messages it compresses the shards' *complete* blocks
// (ScribeCluster::Flush with include_tail = false). Block boundaries
// stay at exact block-size multiples no matter how often the
// incremental flush runs, so the compressed bytes — and the O1
// compression-ratio measurement — are identical to one batch flush.
#pragma once

#include <cstddef>

#include "scribe/scribe.h"
#include "stream/message.h"

namespace recd::common {
class ThreadPool;
}  // namespace recd::common

namespace recd::stream {

class StreamScribe {
 public:
  /// `flush_every_messages` = 0 disables incremental flushing (all
  /// compression happens in Finish, like the batch path).
  StreamScribe(std::size_t num_shards, scribe::ShardKeyPolicy policy,
               std::size_t flush_every_messages, common::ThreadPool* pool);

  /// Logs one message as it arrives, incrementally flushing on cadence.
  void Offer(const StreamMessage& message);

  /// End of stream: compresses everything left, including partial tails.
  void Finish();

  [[nodiscard]] scribe::ScribeCluster& cluster() { return cluster_; }
  [[nodiscard]] std::size_t incremental_flushes() const {
    return incremental_flushes_;
  }

 private:
  scribe::ScribeCluster cluster_;
  std::size_t flush_every_;
  common::ThreadPool* pool_;
  std::size_t since_flush_ = 0;
  std::size_t incremental_flushes_ = 0;
};

}  // namespace recd::stream
