#include "common/checksum_file.h"

#include <cstdio>
#include <memory>

#include "common/hash.h"

namespace recd::common {

namespace {

// Fixed header: magic + version + endian marker + payload size.
constexpr std::size_t kHeaderBytes = 3 * sizeof(std::uint32_t) +
                                     sizeof(std::uint64_t);

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

void WriteRaw(std::FILE* f, const void* data, std::size_t n,
              const std::string& path) {
  if (std::fwrite(data, 1, n, f) != n) {
    throw ChecksumError("checksum_file: short write to " + path);
  }
}

void ReadRaw(std::FILE* f, void* data, std::size_t n,
             const std::string& path, const char* what) {
  if (std::fread(data, 1, n, f) != n) {
    throw ChecksumError("checksum_file: " + path + " truncated (" + what +
                        ")");
  }
}

}  // namespace

void WriteChecksummedFile(const std::string& path, std::uint32_t magic,
                          std::uint32_t version,
                          std::span<const std::byte> payload) {
  File f(std::fopen(path.c_str(), "wb"));
  if (!f) {
    throw ChecksumError("checksum_file: cannot open " + path +
                        " for writing");
  }
  const std::uint32_t endian = kEndianMarker;
  const auto size = static_cast<std::uint64_t>(payload.size());
  const std::uint64_t checksum = HashBytes(payload, version);
  WriteRaw(f.get(), &magic, sizeof(magic), path);
  WriteRaw(f.get(), &version, sizeof(version), path);
  WriteRaw(f.get(), &endian, sizeof(endian), path);
  WriteRaw(f.get(), &size, sizeof(size), path);
  if (!payload.empty()) {
    WriteRaw(f.get(), payload.data(), payload.size(), path);
  }
  WriteRaw(f.get(), &checksum, sizeof(checksum), path);
  if (std::fflush(f.get()) != 0) {
    throw ChecksumError("checksum_file: flush failed for " + path);
  }
}

std::vector<std::byte> ReadChecksummedFile(const std::string& path,
                                           std::uint32_t magic,
                                           std::uint32_t max_version,
                                           std::uint32_t* version_out) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) {
    throw ChecksumError("checksum_file: cannot open " + path);
  }
  std::uint32_t file_magic = 0;
  std::uint32_t version = 0;
  std::uint32_t endian = 0;
  std::uint64_t size = 0;
  ReadRaw(f.get(), &file_magic, sizeof(file_magic), path, "magic");
  if (file_magic != magic) {
    throw ChecksumError("checksum_file: " + path +
                        " has wrong magic (not this file type)");
  }
  ReadRaw(f.get(), &version, sizeof(version), path, "version");
  if (version > max_version) {
    throw ChecksumError("checksum_file: " + path + " has version " +
                        std::to_string(version) +
                        " > supported " + std::to_string(max_version));
  }
  ReadRaw(f.get(), &endian, sizeof(endian), path, "endian marker");
  if (endian != kEndianMarker) {
    throw ChecksumError("checksum_file: " + path +
                        " was written on a host with different endianness");
  }
  ReadRaw(f.get(), &size, sizeof(size), path, "payload size");
  std::vector<std::byte> payload(static_cast<std::size_t>(size));
  if (!payload.empty()) {
    ReadRaw(f.get(), payload.data(), payload.size(), path, "payload");
  }
  std::uint64_t checksum = 0;
  ReadRaw(f.get(), &checksum, sizeof(checksum), path, "checksum");
  if (checksum != HashBytes(payload, version)) {
    throw ChecksumError("checksum_file: " + path +
                        " failed checksum validation (corrupt payload)");
  }
  // Trailing garbage would mean the writer and reader disagree on the
  // format — reject rather than silently ignore.
  std::byte extra;
  if (std::fread(&extra, 1, 1, f.get()) != 0) {
    throw ChecksumError("checksum_file: " + path +
                        " has trailing bytes after the checksum");
  }
  if (version_out != nullptr) *version_out = version;
  return payload;
}

void CorruptChecksummedFile(const std::string& path,
                            std::size_t payload_offset) {
  File f(std::fopen(path.c_str(), "rb+"));
  if (!f) {
    throw ChecksumError("checksum_file: cannot open " + path +
                        " for corruption");
  }
  std::fseek(f.get(), 0, SEEK_END);
  const long end = std::ftell(f.get());
  const long payload_bytes = end - static_cast<long>(kHeaderBytes) -
                             static_cast<long>(sizeof(std::uint64_t));
  if (payload_bytes <= 0) {
    throw ChecksumError("checksum_file: " + path +
                        " has no payload byte to corrupt");
  }
  const long target =
      static_cast<long>(kHeaderBytes) +
      static_cast<long>(payload_offset % static_cast<std::size_t>(
                                             payload_bytes));
  std::fseek(f.get(), target, SEEK_SET);
  unsigned char byte = 0;
  ReadRaw(f.get(), &byte, 1, path, "corruption target");
  byte ^= 0xFFu;
  std::fseek(f.get(), target, SEEK_SET);
  WriteRaw(f.get(), &byte, 1, path);
}

}  // namespace recd::common
