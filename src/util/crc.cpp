#include "util/crc.hpp"

#include <array>

namespace nlft::util {

namespace {

std::array<std::uint32_t, 256> makeCrc32Table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

const std::array<std::uint32_t, 256>& crc32Table() {
  static const auto table = makeCrc32Table();
  return table;
}

}  // namespace

std::uint32_t crc32Update(std::uint32_t crc, std::span<const std::uint8_t> data) {
  const auto& table = crc32Table();
  crc = ~crc;
  for (std::uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFFU] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) { return crc32Update(0, data); }

std::uint16_t crc16Ccitt(std::span<const std::uint8_t> data) {
  return crc16CcittUpdate(0xFFFF, data);
}

std::uint16_t crc16CcittUpdate(std::uint16_t crc, std::span<const std::uint8_t> data) {
  for (std::uint8_t byte : data) {
    crc ^= static_cast<std::uint16_t>(byte) << 8;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000U) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021U)
                            : static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

std::uint32_t crc32Words(std::span<const std::uint32_t> words) {
  std::uint32_t crc = 0;
  for (std::uint32_t w : words) {
    const std::uint8_t bytes[4] = {
        static_cast<std::uint8_t>(w), static_cast<std::uint8_t>(w >> 8),
        static_cast<std::uint8_t>(w >> 16), static_cast<std::uint8_t>(w >> 24)};
    crc = crc32Update(crc, bytes);
  }
  return crc;
}

}  // namespace nlft::util
