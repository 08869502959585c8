// Exact allocation gate for the stream path's per-window feature extract.
//
// This executable replaces the global operator new with a counting one,
// which is why it is a test binary of its own. WindowFeatureExtractor
// computes the baseline half of the feature once, at construction, and
// reuses one target buffer across windows; what extract() still
// allocates per window is sized by the window length, never by the
// window's content. So every window of a stream allocates the same
// number of times, and that number is pinned here. The pipeline's own
// window slots are reused too: a push that completes no window
// allocates nothing once the slots have been filled.
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/streaming_feature.hpp"
#include "core/wimi.hpp"
#include "csi/frame.hpp"
#include "rf/material.hpp"
#include "sim/scenario.hpp"
#include "stream/pipeline.hpp"

namespace {

thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
    ++t_allocations;
    if (void* p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
    ++t_allocations;
    const auto alignment = static_cast<std::size_t>(align);
    void* p = nullptr;
    if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*)
                                                     : alignment,
                       size == 0 ? 1 : size) != 0) {
        throw std::bad_alloc();
    }
    return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new(std::size_t size, std::align_val_t align) {
    return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace wimi {
namespace {

/// Heap allocations of one extract() with the default feature config:
/// the feature vector, the per-cell measurements, and the call's ratio
/// and wavelet scratch, each sized once for the window. Only lower it.
constexpr std::uint64_t kMaxWindowAllocations = 18;

constexpr std::size_t kWindow = 64;
constexpr std::size_t kHop = 16;

TEST(StreamAllocations, EveryWindowMakesTheSamePinnedCount) {
    const sim::Scenario scenario(sim::ScenarioConfig{});
    core::Wimi wimi;
    wimi.calibrate(scenario.capture_reference(101));

    // A replayed stream with a pour half-way: windows over the empty
    // beaker, across the pour, and over the liquid mask out different
    // packets, which must not change what a window allocates.
    csi::CaptureSimulator session = scenario.make_session(7);
    const csi::CsiSeries baseline = session.capture(
        scenario.scene(nullptr), scenario.config().packets);
    csi::CsiSeries stream = session.capture(scenario.scene(nullptr), 160);
    const csi::CsiSeries poured = session.capture(
        scenario.scene(&rf::material_for(rf::Liquid::kMilk)), 160);
    stream.frames.insert(stream.frames.end(), poured.frames.begin(),
                         poured.frames.end());

    const core::WindowFeatureExtractor extractor =
        core::make_window_extractor(wimi, baseline);
    const auto replay = [&] {
        std::vector<std::uint64_t> counts;
        for (std::size_t first = 0;
             first + kWindow <= stream.packet_count(); first += kHop) {
            csi::CsiSeries window;
            window.frames.assign(
                stream.frames.begin() + static_cast<std::ptrdiff_t>(first),
                stream.frames.begin() +
                    static_cast<std::ptrdiff_t>(first + kWindow));
            const std::uint64_t before = t_allocations;
            const std::vector<double> features = extractor.extract(window);
            counts.push_back(t_allocations - before);
            EXPECT_EQ(features.size(),
                      wimi.pairs().size() * wimi.subcarriers().size());
        }
        return counts;
    };

    // The first replay also pays one-time costs: sizing the extractor's
    // reused target buffer, and registering obs metrics the first time a
    // window trips them. The second replay must be exact.
    const std::vector<std::uint64_t> warm = replay();
    const std::vector<std::uint64_t> counts = replay();
    ASSERT_EQ(counts.size(), warm.size());
    ASSERT_GE(counts.size(), 10u);
    EXPECT_LE(counts.front(), kMaxWindowAllocations);
    for (std::size_t w = 0; w < counts.size(); ++w) {
        EXPECT_EQ(counts[w], counts.front()) << "window " << w;
        EXPECT_LE(counts[w], warm[w]) << "window " << w;
    }
}

TEST(StreamAllocations, PushesBetweenWindowsReuseTheWindowSlots) {
    const sim::Scenario scenario(sim::ScenarioConfig{});
    core::Wimi wimi;
    wimi.calibrate(scenario.capture_reference(101));
    csi::CaptureSimulator session = scenario.make_session(9);
    const csi::CsiSeries baseline = session.capture(
        scenario.scene(nullptr), scenario.config().packets);
    const csi::CsiSeries stream =
        session.capture(scenario.scene(nullptr), 4 * kWindow);

    stream::StreamConfig config;
    config.window = kWindow;
    config.hop = kHop;
    stream::StreamingPipeline pipeline(
        config, core::make_window_extractor(wimi, baseline),
        [](std::span<const double>) {
            return std::pair<int, std::string>(0, "A");
        });
    const auto replay = [&] {
        std::uint64_t between_windows = 0;
        std::uint64_t windows = 0;
        for (const csi::CsiFrame& frame : stream.frames) {
            const std::uint64_t before = t_allocations;
            if (pipeline.push(frame).has_value()) {
                ++windows;
            } else {
                between_windows += t_allocations - before;
            }
        }
        EXPECT_EQ(windows, (stream.packet_count() - kWindow) / kHop + 1);
        return between_windows;
    };

    // The first pass sizes every slot's payload buffer; after reset()
    // the same slots take the replayed frames by copy-assignment.
    replay();
    pipeline.reset();
    EXPECT_EQ(replay(), 0u);
}

}  // namespace
}  // namespace wimi
