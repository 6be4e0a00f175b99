// Tiered embedding-row storage: configuration and counters
// (docs/ARCHITECTURE.md §13).
//
// RecD's premise — ids repeat heavily within and across sessions — means
// a small in-memory hot tier absorbs the vast majority of embedding
// lookups while the bulk of every table lives in raw, checksummed cold
// segments (in memory, or on disk under cold_dir). TierConfig is the knob
// block callers thread through train::ModelConfig; TierStats is the
// counter block every tier-aware surface (trainer, serve, benches)
// reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace recd::embstore {

/// Knobs of one table's two-tier row store. Tiering never changes
/// results: rows are stored losslessly in both tiers, so forward,
/// backward, and SGD are bitwise identical for every capacity and
/// eviction schedule (the tier-placement determinism rule, §13).
struct TierConfig {
  /// Off by default: tables keep their dense in-memory weights and no
  /// tiered machinery is built.
  bool enabled = false;

  /// Hot-tier bound, in rows. 0 = no hot tier (every lookup reads from
  /// cold); >= table rows = effectively unbounded.
  std::size_t hot_capacity_rows = 4096;

  /// Rows per cold segment (the checksum granularity: a cold read
  /// verifies one whole segment, a cold write re-checksums it).
  std::size_t rows_per_segment = 256;

  /// Directory for file-backed cold segments. Empty = in-memory
  /// segments (still checksummed). Each store creates a unique
  /// subdirectory, so many tables may share one base dir.
  std::string cold_dir;
};

/// Counters of one tiered store (or the sum over many — benches and the
/// serve/trainer stats aggregate per-table stats with operator+=).
struct TierStats {
  std::uint64_t row_fetches = 0;   // rows requested from the store
  std::uint64_t hot_hits = 0;      // served from the hot tier
  std::uint64_t cold_fetches = 0;  // rows read from cold
  std::uint64_t admissions = 0;    // rows promoted into the hot tier
  std::uint64_t evictions = 0;     // rows displaced from the hot tier
  std::uint64_t writebacks = 0;    // rows written into cold
  std::uint64_t segments_read = 0; // cold segments verified by reads
  std::uint64_t bytes_from_cold = 0; // segment bytes those reads verified
  /// Snapshot fields (summed across tables when aggregated).
  std::uint64_t resident_rows = 0; // rows currently hot
  std::uint64_t capacity_rows = 0; // configured hot capacity

  /// Fraction of row fetches served hot; 0 when nothing was fetched.
  [[nodiscard]] double hit_rate() const {
    return row_fetches == 0
               ? 0.0
               : static_cast<double>(hot_hits) /
                     static_cast<double>(row_fetches);
  }

  TierStats& operator+=(const TierStats& o) {
    row_fetches += o.row_fetches;
    hot_hits += o.hot_hits;
    cold_fetches += o.cold_fetches;
    admissions += o.admissions;
    evictions += o.evictions;
    writebacks += o.writebacks;
    segments_read += o.segments_read;
    bytes_from_cold += o.bytes_from_cold;
    resident_rows += o.resident_rows;
    capacity_rows += o.capacity_rows;
    return *this;
  }
};

}  // namespace recd::embstore
