#include "common/cli.hpp"

#include <charconv>
#include <string>

#include "common/error.hpp"

namespace wimi {

std::uint64_t parse_uint_flag(std::string_view flag, std::string_view value,
                              std::uint64_t min, std::uint64_t max) {
    std::uint64_t parsed = 0;
    const char* const end = value.data() + value.size();
    // from_chars on an unsigned type accepts digits only: no sign, no
    // whitespace, no base prefix.
    const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
    if (value.empty() || ec == std::errc::invalid_argument || ptr != end) {
        fail(std::string(flag) + ": expected a non-negative integer, got '" +
             std::string(value) + "'");
    }
    if (ec == std::errc::result_out_of_range || parsed < min ||
        parsed > max) {
        fail(std::string(flag) + ": must be in [" + std::to_string(min) +
             ", " + std::to_string(max) + "], got '" + std::string(value) +
             "'");
    }
    return parsed;
}

}  // namespace wimi
