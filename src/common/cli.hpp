// Command-line value parsing shared by the tools and examples.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

namespace wimi {

/// Parses the value of a numeric command-line flag: one or more ASCII
/// digits and nothing else, in [min, max]. Throws wimi::Error naming
/// `flag` otherwise, so "-1" is rejected rather than wrapping to the
/// type's maximum as std::stoul does.
std::uint64_t parse_uint_flag(
    std::string_view flag, std::string_view value, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

}  // namespace wimi
