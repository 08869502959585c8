// Tests for the numeric command-line flag parser (common/cli).
#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace wimi {
namespace {

/// The message parse_uint_flag throws for `value`, or "" when it parses.
std::string rejection(const char* value, std::uint64_t min = 0,
                      std::uint64_t max = UINT64_MAX) {
    try {
        parse_uint_flag("--max-queue", value, min, max);
    } catch (const Error& e) {
        return e.what();
    }
    return "";
}

TEST(CliFlag, ParsesDigits) {
    EXPECT_EQ(parse_uint_flag("--count", "0"), 0u);
    EXPECT_EQ(parse_uint_flag("--count", "128"), 128u);
    EXPECT_EQ(parse_uint_flag("--seed", "18446744073709551615"),
              UINT64_MAX);
}

TEST(CliFlag, RejectsAnythingButDigitsNamingTheFlag) {
    for (const char* value :
         {"-1", "+1", " 1", "1 ", "1x", "0x10", "1.5", ""}) {
        const std::string message = rejection(value);
        EXPECT_NE(message.find("--max-queue"), std::string::npos)
            << "value '" << value << "' gave: " << message;
    }
}

TEST(CliFlag, EnforcesRangeNamingTheFlag) {
    EXPECT_NE(rejection("0", 1).find("--max-queue"), std::string::npos);
    EXPECT_NE(rejection("5", 0, 4).find("--max-queue"), std::string::npos);
    EXPECT_NE(rejection("18446744073709551616").find("--max-queue"),
              std::string::npos);
    EXPECT_EQ(rejection("1", 1), "");
    EXPECT_EQ(rejection("4", 0, 4), "");
}

}  // namespace
}  // namespace wimi
