// ColdStore: the raw, checksummed cold tier of a tiered embedding table
// (docs/ARCHITECTURE.md §13).
//
// Rows live in fixed-size segments. A segment is a fixed frame (table
// shape and the segment's position, kFrameBytes) followed by its fp32
// rows stored raw, under a checksum, so a damaged segment is *rejected*
// as ColdStoreError, never read into a wrong row. There is no codec:
// LZ77 makes fp32 rows slightly bigger, not smaller, and costs ~0.93 ms
// to encode a 128-row segment, which every cold write used to pay. The
// cold tier saves memory by where it lives (cold_dir), not by
// compression.
//
// Access is row-granular. ReadRows verifies a segment's checksum once
// and copies out only the requested rows; WriteRows patches rows in
// place and re-checksums the segment once. Two backings share one
// payload format:
//
//   * in-memory (cold_dir empty): payload + HashBytes checksum held in
//     RAM — the serving/trainer default, still verified on every read;
//   * file-backed: one checksummed-envelope file per segment
//     (common::WriteChecksummedFile), written under a per-store unique
//     subdirectory so many tables can share a base directory. Writes
//     read, patch and rewrite the whole file.
//
// The cold round trip is bitwise exact (fp32 rows are copied, never
// re-quantized), which is what lets the tier-placement determinism rule
// hold: a row fetched from cold is the exact row that was written.
//
// Thread safety: none. TieredRowStore serializes access under its own
// mutex; standalone users must do the same.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/dense_matrix.h"

namespace recd::embstore {

/// Thrown on any cold-segment validation or I/O failure: checksum
/// mismatch, truncation, malformed payload, wrong shape, an old format
/// version, or an unwritable/unreadable segment file. A cold read either
/// returns exact rows or throws — never a partial row.
class ColdStoreError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ColdStore {
 public:
  /// Bytes of a segment's frame: u64 table rows, dim, first row, and
  /// segment rows. A stored segment is this frame plus rows * dim * 4.
  static constexpr std::size_t kFrameBytes = 4 * sizeof(std::uint64_t);

  /// Per-read accounting, added to by reads (the caller owns
  /// aggregation so checkpoints can materialize without skewing stats).
  struct ReadCounters {
    std::uint64_t segments = 0;  // segments verified
    std::uint64_t bytes = 0;     // segment bytes verified (frame + rows)
  };

  /// Splits `initial` (rows x dim) into segments of `rows_per_segment`
  /// rows. `dir` empty keeps segments in memory; otherwise each segment
  /// is a checksummed file under a fresh unique subdirectory of `dir`.
  /// Throws std::invalid_argument on rows_per_segment == 0 and
  /// ColdStoreError on write failures.
  ColdStore(const nn::DenseMatrix& initial, std::size_t rows_per_segment,
            const std::string& dir);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] std::size_t rows_per_segment() const {
    return rows_per_segment_;
  }
  [[nodiscard]] std::size_t num_segments() const { return num_segments_; }
  [[nodiscard]] std::size_t SegmentOf(std::size_t row) const {
    return row / rows_per_segment_;
  }
  [[nodiscard]] std::size_t SegmentFirstRow(std::size_t s) const {
    return s * rows_per_segment_;
  }
  /// Rows in segment s (the last segment may be short).
  [[nodiscard]] std::size_t SegmentRows(std::size_t s) const;

  /// Verifies segment s and returns all its rows as SegmentRows(s) * dim
  /// floats. Adds to `counters` if non-null. Throws ColdStoreError on any
  /// corruption, truncation, or mismatch.
  [[nodiscard]] std::vector<float> ReadSegment(std::size_t s,
                                               ReadCounters* counters) const;

  /// Verifies segment s once, then copies row `rows[k]` (a table row
  /// inside segment s) to dst[k] (dim floats). Adds to `counters` if
  /// non-null. Throws like ReadSegment, and std::out_of_range for a row
  /// outside segment s.
  void ReadRows(std::size_t s, std::span<const std::size_t> rows,
                std::span<float* const> dst, ReadCounters* counters) const;

  /// Replaces segment s with `data` (SegmentRows(s) * dim floats).
  void WriteSegment(std::size_t s, std::span<const float> data);

  /// Verifies segment s, overwrites row `rows[k]` from src[k] (dim
  /// floats) in place, and re-checksums the segment once. The segment's
  /// other rows keep their bits. Throws like ReadRows.
  void WriteRows(std::size_t s, std::span<const std::size_t> rows,
                 std::span<const float* const> src);

  /// Rebuilds every segment from `w` (the checkpoint-restore path).
  /// Shape must match; throws std::invalid_argument otherwise.
  void Load(const nn::DenseMatrix& w);

  /// Full table as a dense matrix (checkpoint materialization).
  [[nodiscard]] nn::DenseMatrix Materialize() const;

  /// Current stored footprint across all segments: num_segments() *
  /// kFrameBytes + rows * dim * sizeof(float).
  [[nodiscard]] std::size_t stored_bytes() const;

  /// File-mode only: path of segment s (tests corrupt/truncate it).
  /// Empty string in memory mode.
  [[nodiscard]] std::string SegmentPath(std::size_t s) const;

  [[nodiscard]] bool file_backed() const { return !dir_.empty(); }

 private:
  [[nodiscard]] std::vector<std::byte> EncodePayload(
      std::size_t s, std::span<const float> data) const;
  void StorePayload(std::size_t s, std::vector<std::byte> payload);
  // Reads and verifies segment s: its whole payload (frame + rows). In
  // memory mode a view of the stored payload; in file mode a view of
  // `file_buf`, which receives the file's payload.
  [[nodiscard]] std::span<const std::byte> VerifiedPayload(
      std::size_t s, std::vector<std::byte>& file_buf,
      ReadCounters* counters) const;
  // Byte offset of `row` in segment s's payload; throws std::out_of_range
  // if the row lies outside s.
  [[nodiscard]] std::size_t RowOffset(std::size_t s, std::size_t row) const;

  std::size_t rows_ = 0;
  std::size_t dim_ = 0;
  std::size_t rows_per_segment_ = 1;
  std::size_t num_segments_ = 0;
  std::string dir_;  // unique per-store segment directory; empty = memory

  struct MemSegment {
    std::vector<std::byte> payload;
    std::uint64_t checksum = 0;
  };
  std::vector<MemSegment> mem_segments_;  // memory mode
};

}  // namespace recd::embstore
