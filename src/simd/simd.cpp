#include "simd/simd.hpp"

namespace wimi::simd {

std::size_t double_lanes() { return kDoubleLanes; }

const char* effective_isa() { return WIMI_SIMD_ISA; }

}  // namespace wimi::simd
