// Versioned, sectioned, CRC-protected binary snapshot format.
//
// hw::Machine::saveState() blobs use this container so the failure modes
// are uniform and testable:
//
//   * a header pins the snapshot KIND and a per-kind FORMAT VERSION —
//     restoring a blob of the wrong kind or of a newer version fails loudly
//     instead of misparsing;
//   * the payload is split into named sections, each protected by its own
//     CRC-32 — a truncated or bit-flipped blob is rejected with a
//     diagnostic NAMING the damaged section ("snapshot section 'mem': CRC
//     mismatch"), which tests/snapshot_roundtrip_test.cpp pins.
//
// Layout (all integers little-endian):
//
//   [u32 magic 'NLSN'] [u16 kind] [u16 version]
//   repeated sections:
//     [u8 nameLen] [name bytes] [u32 payloadSize] [payload] [u32 crc32]
//
// Writing and reading are strictly sequential; the reader verifies section
// names in order, so a blob is parsed exactly the way it was produced.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace nlft::snap {

/// Snapshot kinds (the `kind` header field).
inline constexpr std::uint16_t kMachineSnapshot = 1;  ///< hw::Machine

/// Header magic: "NLSN" in little-endian byte order.
inline constexpr std::uint32_t kBlobMagic = 0x4E534C4Eu;

/// Thrown on any malformed blob: wrong magic/kind, version mismatch,
/// truncation, or a section CRC failure. The message names the section
/// where the damage was detected.
class BlobError : public std::runtime_error {
 public:
  explicit BlobError(const std::string& message) : std::runtime_error(message) {}
};

/// Sequential writer. Usage:
///   BlobWriter w{kMachineSnapshot, kVersion};
///   w.beginSection("cpu"); w.u32(...); ... w.endSection();
///   std::vector<std::uint8_t> blob = w.finish();
class BlobWriter {
 public:
  BlobWriter(std::uint16_t kind, std::uint16_t version);

  void beginSection(std::string_view name);
  void endSection();

  void u8(std::uint8_t value);
  void u16(std::uint16_t value);
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  void i64(std::int64_t value);
  void f64(double value);
  void boolean(bool value);
  void str(std::string_view value);           ///< u32 length + bytes
  void u32Vec(std::span<const std::uint32_t> values);
  void u64Vec(std::span<const std::uint64_t> values);

  /// Seals the blob. The writer must not be reused afterwards.
  [[nodiscard]] std::vector<std::uint8_t> finish();

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t sectionPayloadStart_ = 0;  ///< 0 = no open section
  std::string sectionName_;
};

/// Sequential reader; the constructor validates magic, kind and version.
class BlobReader {
 public:
  BlobReader(std::span<const std::uint8_t> bytes, std::uint16_t expectedKind,
             std::uint16_t expectedVersion);

  /// Opens the next section, verifying its name and payload CRC.
  void openSection(std::string_view name);
  /// Asserts the open section was fully consumed and closes it.
  void closeSection();

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64();
  [[nodiscard]] double f64();
  [[nodiscard]] bool boolean();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<std::uint32_t> u32Vec();
  [[nodiscard]] std::vector<std::uint64_t> u64Vec();

  /// Asserts the whole blob was consumed (no trailing garbage).
  void finish() const;

 private:
  [[nodiscard]] std::span<const std::uint8_t> take(std::size_t count);
  [[noreturn]] void fail(const std::string& what) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
  std::size_t sectionEnd_ = 0;  ///< 0 = no open section
  std::string sectionName_;
};

}  // namespace nlft::snap
