// Operation counters accumulated by every nn module.
//
// Counted from *real* tensor math on real batches, they report the work
// a step or a served batch did (ReferenceDlrm::Stats, serving's
// per-batch op counts); dedup paths must count less of it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace recd::nn {

struct OpStats {
  std::uint64_t flops = 0;          // multiply-adds count as 2
  std::uint64_t bytes_read = 0;     // parameter/activation reads
  std::uint64_t bytes_written = 0;  // activation writes
  std::uint64_t lookups = 0;        // embedding row fetches

  OpStats& operator+=(const OpStats& other) {
    flops += other.flops;
    bytes_read += other.bytes_read;
    bytes_written += other.bytes_written;
    lookups += other.lookups;
    return *this;
  }
};

}  // namespace recd::nn
