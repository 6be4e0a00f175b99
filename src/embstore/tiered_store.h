// TieredRowStore: a bounded in-memory hot tier over a raw, checksummed
// cold store — the pluggable row backend of nn::EmbeddingTable
// (docs/ARCHITECTURE.md §13).
//
// The hot tier is row-granular, 64-byte-aligned (kernel-compatible)
// storage holding at most `hot_capacity_rows` rows; every other row
// lives in a ColdStore segment. Admission and eviction are
// frequency-driven: each fetch carries an access *weight* — the
// IKJT inverse-index multiplicity that the reader and serve paths
// already compute — so RecD's dedup skew directly shapes the hot set.
// A cold-fetched row is admitted when the tier has a free slot or when
// its accumulated frequency beats the least-frequent resident row
// (LFU with frequency-based admission: one-hit rows cannot flush a
// skew-heavy working set). Dirty rows (SGD write-backs) are patched
// into their cold segment on eviction. Cold access is row-granular: a
// miss verifies its segment's checksum and copies out only the missed
// rows; a cold write patches only the written rows.
//
// Determinism: rows are bit-exact in both tiers (raw fp32), every
// fetch copies the row bitwise, and updates apply to
// whichever copy is current — so forward/backward/SGD results are
// bitwise identical for every hot capacity and eviction schedule. The
// cache changes *where bytes live and what they cost*, never their
// values.
//
// Thread safety: all public methods are internally synchronized; many
// readers may Gather concurrently while eviction reshapes the tier
// (raced under TSan by tests/embstore_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "embstore/cold_store.h"
#include "embstore/tier_config.h"
#include "nn/dense_matrix.h"
#include "obs/metrics.h"

namespace recd::embstore {

class TieredRowStore {
 public:
  /// Builds the cold segments from `initial` and starts with an empty
  /// hot tier. `config.enabled` is ignored here (the caller decided by
  /// constructing a store). Throws like ColdStore on bad config.
  TieredRowStore(const nn::DenseMatrix& initial, TierConfig config);

  [[nodiscard]] std::size_t rows() const { return cold_.rows(); }
  [[nodiscard]] std::size_t dim() const { return cold_.dim(); }
  [[nodiscard]] const TierConfig& config() const { return config_; }

  /// Fetches row `row_ids[i]` into out[i*dim .. (i+1)*dim), bitwise
  /// whatever tier it lives in. `weights[i]` (empty = all 1) is added
  /// to the row's frequency counter — callers pass dedup
  /// multiplicities so repeated rows gain admission priority. Cold
  /// misses sharing a segment verify it once per call and copy out only
  /// the missed rows.
  void Gather(std::span<const std::size_t> row_ids,
              std::span<const std::uint64_t> weights, float* out);

  /// Writes row `row_ids[i]` from src[i*dim ...) back into the store:
  /// hot rows update in place (dirty, written back on eviction), cold
  /// rows are patched in their segment, re-checksummed once per segment
  /// per call.
  void Update(std::span<const std::size_t> row_ids, const float* src);

  /// Full table, hot rows overlaid on cold — the checkpoint surface.
  /// Does not touch frequency counters or stats.
  [[nodiscard]] nn::DenseMatrix Materialize() const;

  /// Replaces every row (checkpoint restore): cold segments rebuilt,
  /// hot tier and frequency counters reset. Shape must match.
  void Load(const nn::DenseMatrix& w);

  /// Counter snapshot including resident_rows/capacity_rows. The
  /// counters live in this store's metrics() registry (§14 single
  /// source of truth); this view is assembled from those series.
  [[nodiscard]] TierStats stats() const;
  void ResetStats();

  /// The store's metric registry (`embstore.*` series) — merge its
  /// Snapshot() upward to roll per-store counters into a process view.
  [[nodiscard]] const obs::Registry& metrics() const { return metrics_; }

  [[nodiscard]] std::size_t resident_rows() const;

 private:
  // All private helpers assume mutex_ is held.
  void Admit(std::size_t row, const float* data);
  void SettleLfu();
  void EvictLeastFrequent();
  void WriteRowToCold(std::size_t row, const float* data);

  mutable std::mutex mutex_;
  TierConfig config_;
  ColdStore cold_;

  // Hot tier: slot-addressed aligned row storage.
  common::AlignedVector<float> hot_data_;   // capacity * dim
  std::vector<std::size_t> slot_row_;       // slot -> row id
  std::vector<bool> slot_dirty_;
  std::vector<std::size_t> free_slots_;
  std::unordered_map<std::size_t, std::size_t> row_slot_;  // row -> slot

  // Frequency counters (all rows) and the LFU order of resident rows:
  // one (frequency, row) entry per resident. A hot hit bumps only freq_,
  // so an entry may hold a stale, lower frequency; SettleLfu() refreshes
  // stale entries as they reach the front, which leaves the front equal
  // to the resident with the least (current frequency, row) — the same
  // victim an entry updated on every hit would give, without a tree
  // erase and insert per hit.
  std::vector<std::uint64_t> freq_;
  std::set<std::pair<std::uint64_t, std::size_t>> hot_by_freq_;

  // Tier counters: registry-backed (obs/metrics.h), handles cached so
  // the mutex-held hot path never takes the registry lock. TierStats
  // snapshots read these back.
  obs::Registry metrics_;
  obs::Counter& row_fetches_;
  obs::Counter& hot_hits_;
  obs::Counter& cold_fetches_;
  obs::Counter& admissions_;
  obs::Counter& evictions_;
  obs::Counter& writebacks_;
  obs::Counter& segments_read_;
  obs::Counter& bytes_from_cold_;
  obs::Gauge& resident_rows_gauge_;
  obs::Gauge& capacity_rows_gauge_;
};

}  // namespace recd::embstore
