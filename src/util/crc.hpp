// Cyclic redundancy checks used for frame protection (net) and data
// integrity records (core end-to-end error detection).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace nlft::util {

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
///
/// Detects all single- and double-bit errors over payloads well beyond the
/// sizes used in this framework, and all burst errors up to 32 bits.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Incremental CRC-32: feed chunks, pass the previous return value back in.
[[nodiscard]] std::uint32_t crc32Update(std::uint32_t crc, std::span<const std::uint8_t> data);

/// CRC-16-CCITT (polynomial 0x1021, init 0xFFFF) as used by many field buses.
[[nodiscard]] std::uint16_t crc16Ccitt(std::span<const std::uint8_t> data);

/// Incremental CRC-16-CCITT: start from 0xFFFF, pass the previous return
/// value back in for each further chunk.
[[nodiscard]] std::uint16_t crc16CcittUpdate(std::uint16_t crc,
                                             std::span<const std::uint8_t> data);

/// Convenience: CRC-32 over an array of 32-bit words (little-endian bytes).
[[nodiscard]] std::uint32_t crc32Words(std::span<const std::uint32_t> words);

}  // namespace nlft::util
