// Shared assertion: two pipeline results agree on every non-timing
// counter. This is the determinism yardstick used by both
// pipeline_roundtrip_test (threads must not change results) and
// stream_test (one whole-dataset window must reproduce a golden digest,
// and windowed results must be thread-count invariant) — one counter
// list so a counter added to core::PipelineResult gets covered by every
// contract at once.
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
      // The trainer model is analytic, so even its simulated seconds
      // and derived QPS are deterministic counters, not wall-clock
      // samples.
      {"trainer.lookups", r.trainer.lookups},
      {"trainer.flops", r.trainer.flops},
      {"trainer.sdd_bytes", r.trainer.sdd_bytes},
      {"trainer.emb_a2a_bytes", r.trainer.emb_a2a_bytes},
      {"trainer_qps", r.trainer_qps},
  };
}

inline void ExpectPipelineCountersEqual(const core::PipelineResult& a,
                                        const core::PipelineResult& b) {
  const auto x = NonTimingCounters(a);
  const auto y = NonTimingCounters(b);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].second, y[i].second) << x[i].first;
  }
}

/// One number for a result: the exact bits of every non-timing counter,
/// folded in order with common::HashCombine.
inline std::uint64_t PipelineCountersDigest(const core::PipelineResult& r) {
  std::uint64_t h = 0;
  for (const auto& [name, value] : NonTimingCounters(r)) {
    h = common::HashCombine(h, std::bit_cast<std::uint64_t>(value));
  }
  return h;
}

}  // namespace recd::testutil
