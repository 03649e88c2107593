// Strict parsing of numeric command-line flags.
//
// std::strtoul and friends accept leading whitespace, a sign, trailing
// garbage and out-of-range text without complaint ("abc" becomes 0, "-1"
// wraps to the type's maximum). The tools parse every numeric flag through
// parseInteger instead, so malformed input fails with a named diagnostic.
#pragma once

#include <charconv>
#include <concepts>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace nlft::util {

/// Parses `text` as a plain decimal integer of type T: digits only, with a
/// leading '-' accepted for signed T, no whitespace, '+' or suffix, and the
/// value within T's range. Throws std::invalid_argument naming `flag` and
/// `text` otherwise.
template <std::integral T>
[[nodiscard]] T parseInteger(std::string_view flag, std::string_view text) {
  T value{};
  const char* const last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (text.empty() || error != std::errc{} || end != last) {
    throw std::invalid_argument(std::string{flag} + ": expected a decimal integer in [" +
                                std::to_string(std::numeric_limits<T>::min()) + ", " +
                                std::to_string(std::numeric_limits<T>::max()) + "], got '" +
                                std::string{text} + "'");
  }
  return value;
}

}  // namespace nlft::util
