// TrafficSource: replays generated traffic as a stream, in arrival-time
// order with bounded reordering.
//
// A batch pipeline hands whole log vectors between stages; production
// traffic instead trickles in over a message bus, slightly out of order
// (paper §2.1: inference servers and user-facing services log into
// Scribe independently). This source models that: every feature/event
// log gets an arrival tick = its payload timestamp plus a deterministic
// uniform delay in [0, reorder_ticks], and messages are emitted sorted
// by arrival tick (stable, so ties keep log order). reorder_ticks == 0
// replays exactly the generation order — the configuration under which
// a whole-dataset window must reproduce a one-pass batch run byte for
// byte (docs/ARCHITECTURE.md §8).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/channel.h"
#include "datagen/generator.h"
#include "stream/message.h"

namespace recd::stream {

class TrafficSource {
 public:
  /// Builds the arrival schedule over `traffic`, which must outlive the
  /// source (the runner owns both). The delay draws come from `seed`
  /// alone, so a given (traffic, reorder_ticks, seed) triple always
  /// yields the same schedule.
  TrafficSource(const datagen::TrafficGenerator::Traffic& traffic,
                std::int64_t reorder_ticks, std::uint64_t seed);

  [[nodiscard]] std::size_t size() const { return order_.size(); }

  /// Largest arrival tick in the schedule — the stream's end of time,
  /// used as the closing watermark for windows still open at exhaustion.
  [[nodiscard]] std::int64_t final_tick() const { return final_tick_; }

  /// Message `i` of the arrival schedule (copies the log payload).
  [[nodiscard]] StreamMessage Message(std::size_t i) const;

  /// Pushes the whole schedule into `out`, then closes it. Returns
  /// false if `out` was closed from the other side first (shutdown).
  bool PumpTo(common::Channel<StreamMessage>& out) const;

 private:
  struct Slot {
    std::int64_t arrival = 0;
    std::uint32_t index = 0;  // into traffic features/events
    bool is_event = false;
  };

  const datagen::TrafficGenerator::Traffic* traffic_;
  std::vector<Slot> order_;
  std::int64_t final_tick_ = 0;
};

}  // namespace recd::stream
