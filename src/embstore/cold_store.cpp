#include "embstore/cold_store.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>

#include "common/bytes.h"
#include "common/checksum_file.h"
#include "common/hash.h"

namespace recd::embstore {

namespace {

// Checksummed-envelope tag of a file-backed cold segment ("RCLD").
constexpr std::uint32_t kSegmentMagic = 0x52434c44u;
// Version 1 held LZ77-compressed rows; version 2 holds them raw. Reads
// accept exactly this version.
constexpr std::uint32_t kSegmentVersion = 2;

// Process-wide counter giving each store a unique subdirectory, so many
// tables can point at one base cold_dir without colliding.
std::atomic<std::uint64_t> g_store_counter{0};

}  // namespace

ColdStore::ColdStore(const nn::DenseMatrix& initial,
                     std::size_t rows_per_segment, const std::string& dir)
    : rows_(initial.rows()),
      dim_(initial.cols()),
      rows_per_segment_(rows_per_segment) {
  if (rows_per_segment_ == 0) {
    throw std::invalid_argument("ColdStore: rows_per_segment must be >= 1");
  }
  if (!dir.empty()) {
    const auto id = g_store_counter.fetch_add(1);
    dir_ = dir + "/embstore_" + std::to_string(id);
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      throw ColdStoreError("ColdStore: cannot create segment dir " + dir_ +
                           ": " + ec.message());
    }
  }
  num_segments_ =
      rows_ == 0 ? 0 : (rows_ + rows_per_segment_ - 1) / rows_per_segment_;
  if (dir_.empty()) mem_segments_.resize(num_segments_);
  Load(initial);
}

std::size_t ColdStore::SegmentRows(std::size_t s) const {
  if (s >= num_segments()) {
    throw std::out_of_range("ColdStore: segment index out of range");
  }
  const std::size_t first = SegmentFirstRow(s);
  return std::min(rows_per_segment_, rows_ - first);
}

std::size_t ColdStore::RowOffset(std::size_t s, std::size_t row) const {
  const std::size_t first = SegmentFirstRow(s);
  if (row < first || row - first >= SegmentRows(s)) {
    throw std::out_of_range("ColdStore: row outside segment");
  }
  return kFrameBytes + (row - first) * dim_ * sizeof(float);
}

std::vector<std::byte> ColdStore::EncodePayload(
    std::size_t s, std::span<const float> data) const {
  if (data.size() != SegmentRows(s) * dim_) {
    throw std::invalid_argument("ColdStore: segment data size mismatch");
  }
  common::ByteWriter w;
  w.PutU64(rows_);
  w.PutU64(dim_);
  w.PutU64(SegmentFirstRow(s));
  w.PutU64(SegmentRows(s));
  w.PutBytes(std::as_bytes(data));
  return std::move(w).Take();
}

void ColdStore::StorePayload(std::size_t s, std::vector<std::byte> payload) {
  if (dir_.empty()) {
    mem_segments_[s].checksum = common::HashBytes(payload, kSegmentVersion);
    mem_segments_[s].payload = std::move(payload);
    return;
  }
  try {
    common::WriteChecksummedFile(SegmentPath(s), kSegmentMagic,
                                 kSegmentVersion, payload);
  } catch (const common::ChecksumError& e) {
    throw ColdStoreError(std::string("ColdStore: segment write failed: ") +
                         e.what());
  }
}

std::span<const std::byte> ColdStore::VerifiedPayload(
    std::size_t s, std::vector<std::byte>& file_buf,
    ReadCounters* counters) const {
  const std::size_t seg_rows = SegmentRows(s);
  std::span<const std::byte> payload;
  if (dir_.empty()) {
    const auto& seg = mem_segments_[s];
    if (common::HashBytes(seg.payload, kSegmentVersion) != seg.checksum) {
      throw ColdStoreError("ColdStore: in-memory segment checksum mismatch");
    }
    payload = seg.payload;
  } else {
    std::uint32_t version = 0;
    try {
      file_buf = common::ReadChecksummedFile(SegmentPath(s), kSegmentMagic,
                                             kSegmentVersion, &version);
    } catch (const common::ChecksumError& e) {
      throw ColdStoreError(std::string("ColdStore: segment ") +
                           SegmentPath(s) + " rejected: " + e.what());
    }
    if (version != kSegmentVersion) {
      throw ColdStoreError("ColdStore: segment " + SegmentPath(s) +
                           " has old format version " +
                           std::to_string(version));
    }
    payload = file_buf;
  }

  if (payload.size() != kFrameBytes + seg_rows * dim_ * sizeof(float)) {
    throw ColdStoreError("ColdStore: segment size mismatch");
  }
  common::ByteReader r(payload.first(kFrameBytes));
  if (r.GetU64() != rows_ || r.GetU64() != dim_ ||
      r.GetU64() != SegmentFirstRow(s) || r.GetU64() != seg_rows) {
    throw ColdStoreError("ColdStore: segment frame mismatch");
  }
  if (counters != nullptr) {
    counters->segments += 1;
    counters->bytes += payload.size();
  }
  return payload;
}

std::vector<float> ColdStore::ReadSegment(std::size_t s,
                                          ReadCounters* counters) const {
  std::vector<std::byte> file_buf;
  const auto payload = VerifiedPayload(s, file_buf, counters);
  std::vector<float> out(SegmentRows(s) * dim_);
  std::memcpy(out.data(), payload.data() + kFrameBytes,
              out.size() * sizeof(float));
  return out;
}

void ColdStore::ReadRows(std::size_t s, std::span<const std::size_t> rows,
                         std::span<float* const> dst,
                         ReadCounters* counters) const {
  if (rows.size() != dst.size()) {
    throw std::invalid_argument("ColdStore::ReadRows: rows/dst mismatch");
  }
  std::vector<std::byte> file_buf;
  const auto payload = VerifiedPayload(s, file_buf, counters);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    std::memcpy(dst[k], payload.data() + RowOffset(s, rows[k]),
                dim_ * sizeof(float));
  }
}

void ColdStore::WriteSegment(std::size_t s, std::span<const float> data) {
  StorePayload(s, EncodePayload(s, data));
}

void ColdStore::WriteRows(std::size_t s, std::span<const std::size_t> rows,
                          std::span<const float* const> src) {
  if (rows.size() != src.size()) {
    throw std::invalid_argument("ColdStore::WriteRows: rows/src mismatch");
  }
  // Verify first: re-checksumming a damaged segment would bless it.
  std::vector<std::byte> file_buf;
  (void)VerifiedPayload(s, file_buf, nullptr);
  auto& payload = dir_.empty() ? mem_segments_[s].payload : file_buf;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    std::memcpy(payload.data() + RowOffset(s, rows[k]), src[k],
                dim_ * sizeof(float));
  }
  if (dir_.empty()) {
    mem_segments_[s].checksum = common::HashBytes(payload, kSegmentVersion);
  } else {
    StorePayload(s, std::move(file_buf));
  }
}

void ColdStore::Load(const nn::DenseMatrix& w) {
  if (w.rows() != rows_ || w.cols() != dim_) {
    throw std::invalid_argument("ColdStore::Load: shape mismatch");
  }
  for (std::size_t s = 0; s < num_segments(); ++s) {
    WriteSegment(s, w.data().subspan(SegmentFirstRow(s) * dim_,
                                     SegmentRows(s) * dim_));
  }
}

nn::DenseMatrix ColdStore::Materialize() const {
  nn::DenseMatrix out(rows_, dim_);
  for (std::size_t s = 0; s < num_segments(); ++s) {
    const auto data = ReadSegment(s, nullptr);
    std::copy(data.begin(), data.end(),
              out.data().begin() +
                  static_cast<std::ptrdiff_t>(SegmentFirstRow(s) * dim_));
  }
  return out;
}

std::size_t ColdStore::stored_bytes() const {
  return num_segments_ * kFrameBytes + rows_ * dim_ * sizeof(float);
}

std::string ColdStore::SegmentPath(std::size_t s) const {
  if (dir_.empty()) return {};
  return dir_ + "/seg_" + std::to_string(s) + ".cold";
}

}  // namespace recd::embstore
