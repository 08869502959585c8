// Allocation counting for the *_allocs metrics. This binary replaces the
// global operator new; every allocation bumps a per-thread counter, so
// the count taken around a call on one thread is exact and repeats from
// run to run.
#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations made by the calling thread since it started.
std::uint64_t thread_allocations() noexcept;

}  // namespace perfbench
