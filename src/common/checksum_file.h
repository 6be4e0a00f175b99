// Checksummed single-payload files: the durability envelope under the
// trainer checkpoints (train/checkpoint.h) and any other state that
// must survive a process death *verifiably*.
//
// Layout (all integers little-endian, written on the host byte order
// and guarded by an explicit endianness marker):
//
//   u32 magic        caller-chosen file type tag
//   u32 version      caller-chosen format version
//   u32 endian       kEndianMarker as written by the producer host
//   u64 payload_size
//   payload bytes
//   u64 checksum     HashBytes(payload, seed = version)
//
// Read validates every field before returning the payload: wrong magic,
// unsupported version, foreign endianness, a truncated payload, or a
// checksum mismatch each throw ChecksumError with a distinct message —
// a damaged file is *rejected*, never partially decoded into a wrong
// restore.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace recd::common {

/// Thrown on any validation failure while reading a checksummed file
/// (and on I/O failures in either direction).
class ChecksumError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The byte-order probe value. A file written on a host with different
/// endianness decodes this field to something else and is rejected.
inline constexpr std::uint32_t kEndianMarker = 0x01020304u;

/// Writes `payload` to `path` under the envelope above. Overwrites an
/// existing file. Throws ChecksumError if the file cannot be written.
void WriteChecksummedFile(const std::string& path, std::uint32_t magic,
                          std::uint32_t version,
                          std::span<const std::byte> payload);

/// Reads and fully validates `path`; returns the payload. `magic` must
/// match the producer's and `max_version` gates forward compatibility:
/// files with version > max_version are rejected as unsupported. If
/// `version_out` is non-null it receives the file's version, so a reader
/// that accepts only one format can reject older ones.
[[nodiscard]] std::vector<std::byte> ReadChecksummedFile(
    const std::string& path, std::uint32_t magic, std::uint32_t max_version,
    std::uint32_t* version_out = nullptr);

/// Flips one payload byte of an existing checksummed file in place —
/// the corruption half of the fault-injection harness
/// (train::FaultInjector). `payload_offset` is clamped into the
/// payload; throws ChecksumError if the file is too short to carry one.
void CorruptChecksummedFile(const std::string& path,
                            std::size_t payload_offset);

}  // namespace recd::common
