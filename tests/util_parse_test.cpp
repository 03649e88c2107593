#include "util/parse.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace nlft::util {
namespace {

/// The diagnostic of a rejected flag value, or "" when it parsed.
template <typename T>
std::string rejection(const char* flag, const char* text) {
  try {
    (void)parseInteger<T>(flag, text);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(ParseInteger, AcceptsPlainDecimals) {
  EXPECT_EQ(parseInteger<unsigned>("--threads", "0"), 0u);
  EXPECT_EQ(parseInteger<unsigned>("--threads", "8"), 8u);
  EXPECT_EQ(parseInteger<std::size_t>("--budget", "500"), 500u);
  EXPECT_EQ(parseInteger<std::uint64_t>("--seed", "18446744073709551615"),
            18446744073709551615ULL);
  EXPECT_EQ(parseInteger<std::int64_t>("--offset", "-42"), -42);
}

TEST(ParseInteger, RejectsNegativeUnsigned) {
  const std::string message = rejection<unsigned>("--threads", "-1");
  EXPECT_NE(message.find("--threads"), std::string::npos) << message;
  EXPECT_NE(message.find("'-1'"), std::string::npos) << message;
}

TEST(ParseInteger, RejectsNonNumericText) {
  const std::string message = rejection<std::size_t>("--budget", "abc");
  EXPECT_NE(message.find("--budget"), std::string::npos) << message;
  EXPECT_NE(message.find("'abc'"), std::string::npos) << message;
}

TEST(ParseInteger, RejectsTrailingGarbage) {
  const std::string message = rejection<std::size_t>("--chunk", "12x");
  EXPECT_NE(message.find("--chunk"), std::string::npos) << message;
  EXPECT_NE(message.find("'12x'"), std::string::npos) << message;
}

TEST(ParseInteger, RejectsEmptyText) {
  const std::string message = rejection<std::uint64_t>("--seed", "");
  EXPECT_NE(message.find("--seed"), std::string::npos) << message;
  EXPECT_NE(message.find("''"), std::string::npos) << message;
}

TEST(ParseInteger, RejectsOverflow) {
  EXPECT_NE(rejection<unsigned>("--threads", "4294967296"), "");
  EXPECT_NE(rejection<std::uint64_t>("--seed", "18446744073709551616"), "");
  const std::string message = rejection<std::uint8_t>("--small", "256");
  EXPECT_NE(message.find("[0, 255]"), std::string::npos) << message;
}

TEST(ParseInteger, RejectsSignsAndWhitespace) {
  EXPECT_NE(rejection<unsigned>("--threads", "+4"), "");
  EXPECT_NE(rejection<unsigned>("--threads", " 4"), "");
  EXPECT_NE(rejection<unsigned>("--threads", "4 "), "");
  EXPECT_NE(rejection<unsigned>("--threads", "0x10"), "");
}

}  // namespace
}  // namespace nlft::util
