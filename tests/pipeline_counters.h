// Shared assertion: two pipeline results agree on every non-timing
// counter. This is the determinism yardstick used by both
// pipeline_roundtrip_test (threads must not change results) and
// stream_test (one whole-dataset window must reproduce a golden digest,
// and windowed results must be thread-count invariant) — one counter
// list so a counter added to core::PipelineResult gets covered by every
// contract at once. The executed trainer's counters are a second list:
// they are zero in runs that build no trainer (max_trainer_batches 0).
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "core/pipeline.h"

namespace recd::testutil {

/// Every non-timing counter of `r`, named, in a fixed order. Sizes are
/// widened to double, which is exact for any count below 2^53.
inline std::vector<std::pair<const char*, double>> NonTimingCounters(
    const core::PipelineResult& r) {
  const auto n = [](std::size_t v) { return static_cast<double>(v); };
  return {
      {"scribe_compression_ratio", r.scribe_compression_ratio},
      {"storage_compression_ratio", r.storage_compression_ratio},
      {"stored_bytes", n(r.stored_bytes)},
      {"samples_per_session", r.samples_per_session},
      {"batch_samples_per_session", r.batch_samples_per_session},
      {"mean_dedupe_factor", r.mean_dedupe_factor},
      {"reader_io.bytes_read", n(r.reader_io.bytes_read)},
      {"reader_io.bytes_sent", n(r.reader_io.bytes_sent)},
      {"reader_io.rows_read", n(r.reader_io.rows_read)},
      {"reader_io.batches_produced", n(r.reader_io.batches_produced)},
      {"reader_io.sparse_elements_processed",
       n(r.reader_io.sparse_elements_processed)},
  };
}

/// The executed trainer's deterministic counters: exchange bytes and
/// sparse values summed over every step and rank, and the exact bits of
/// the first-step loss. Step and exchange times are samples, not
/// counters.
inline std::vector<std::pair<const char*, double>> TrainerCounters(
    const core::PipelineResult& r) {
  const auto n = [](std::size_t v) { return static_cast<double>(v); };
  const auto& x = r.trainer_exchange;
  return {
      {"trainer_exchange.sdd_bytes", n(x.sdd_bytes)},
      {"trainer_exchange.emb_bytes", n(x.emb_bytes)},
      {"trainer_exchange.grad_bytes", n(x.grad_bytes)},
      {"trainer_exchange.allreduce_bytes", n(x.allreduce_bytes)},
      {"trainer_exchange.values_logical", n(x.values_logical)},
      {"trainer_exchange.values_shipped", n(x.values_shipped)},
      {"trainer_first_loss_bits",
       n(std::bit_cast<std::uint32_t>(r.trainer_first_loss))},
  };
}

/// Both lists, counter by counter.
inline void ExpectPipelineCountersEqual(const core::PipelineResult& a,
                                        const core::PipelineResult& b) {
  for (const auto list : {&NonTimingCounters, &TrainerCounters}) {
    const auto x = list(a);
    const auto y = list(b);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].second, y[i].second) << x[i].first;
    }
  }
}

/// One number for a counter list: the exact bits of every value, folded
/// in order with common::HashCombine.
inline std::uint64_t CountersDigest(
    const std::vector<std::pair<const char*, double>>& counters) {
  std::uint64_t h = 0;
  for (const auto& [name, value] : counters) {
    h = common::HashCombine(h, std::bit_cast<std::uint64_t>(value));
  }
  return h;
}

inline std::uint64_t PipelineCountersDigest(const core::PipelineResult& r) {
  return CountersDigest(NonTimingCounters(r));
}

inline std::uint64_t TrainerCountersDigest(const core::PipelineResult& r) {
  return CountersDigest(TrainerCounters(r));
}

}  // namespace recd::testutil
