// Property and fault tests for the streaming window: the pipeline's
// window/hop schedule against a brute-force enumeration at every
// window/hop combination, window contents against batch extraction on
// the same slice, reset replay and input checks, and the windowed
// pipeline fed through the trace fault injector under all three
// ReadPolicy modes — a mid-window corrupt frame must shift, truncate,
// or abort the stream exactly as the policy promises, never silently
// skew a window.
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/material_feature.hpp"
#include "core/streaming_feature.hpp"
#include "csi/frame.hpp"
#include "csi/trace_io.hpp"
#include "pipeline_test_util.hpp"
#include "stream/pipeline.hpp"
#include "trace_fault_util.hpp"

namespace wimi {
namespace {

constexpr std::size_t kAntennas = 2;
constexpr std::size_t kSubcarriers = 8;
constexpr std::size_t kPackets = 20;
constexpr std::size_t kCorruptFrame = 10;

csi::CsiSeries stream_series() {
    return testutil::synthetic_series({1.0, 0.8}, {0.2, -0.4}, kPackets,
                                      0.02, 0.01, 77, kSubcarriers);
}

csi::CsiSeries small_baseline() {
    return testutil::synthetic_series({1.0, 1.0}, {0.1, 0.1}, 12, 0.01,
                                      0.01, 11, kSubcarriers);
}

const std::vector<core::AntennaPair> kPairs = {{0, 1}};
const std::vector<std::size_t> kSubcarrierSet = {0, 1, 2};

core::WindowFeatureExtractor small_extractor() {
    return core::WindowFeatureExtractor(small_baseline(), kPairs,
                                        kSubcarrierSet,
                                        core::FeatureConfig{});
}

stream::StreamingPipeline small_pipeline(std::size_t window,
                                         std::size_t hop) {
    stream::StreamConfig config;
    config.window = window;
    config.hop = hop;
    return stream::StreamingPipeline(
        config, small_extractor(),
        [](std::span<const double>) {
            return std::pair<int, std::string>(0, "A");
        });
}

/// `frames` frames of a noisy two-antenna capture whose timestamp is
/// their global stream index, so a window's span is checkable by value.
csi::CsiSeries indexed_series(std::size_t frames) {
    csi::CsiSeries series = testutil::synthetic_series(
        {1.0, 0.8}, {0.2, -0.4}, frames, 0.05, 0.05, 31, kSubcarriers);
    for (std::size_t i = 0; i < frames; ++i) {
        series.frames[i].timestamp_s = static_cast<double>(i);
    }
    return series;
}

std::vector<stream::WindowResult> feed(stream::StreamingPipeline& pipeline,
                                       const csi::CsiSeries& series) {
    std::vector<stream::WindowResult> windows;
    for (const csi::CsiFrame& frame : series.frames) {
        if (std::optional<stream::WindowResult> result =
                pipeline.push(frame)) {
            windows.push_back(std::move(*result));
        }
    }
    return windows;
}

void expect_same_bits(const std::vector<double>& actual,
                      const std::vector<double>& expected) {
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[i]),
                  std::bit_cast<std::uint64_t>(expected[i]))
            << "feature " << i;
    }
}

TEST(StreamWindow, ScheduleMatchesBruteForceAtEveryWindowAndHop) {
    constexpr std::size_t kArrivals = 25;
    const csi::CsiSeries series = indexed_series(kArrivals);
    for (std::size_t window = 1; window <= 6; ++window) {
        for (std::size_t hop = 0; hop <= window; ++hop) {
            // Brute force over window starts: hop 0 is one window at
            // frame 0; hop H starts a window at every multiple of H
            // that still has `window` frames after it.
            std::vector<std::uint64_t> starts = {0};
            while (hop != 0 && starts.back() + hop + window <= kArrivals) {
                starts.push_back(starts.back() + hop);
            }

            stream::StreamingPipeline pipeline = small_pipeline(window, hop);
            std::size_t emitted = 0;
            for (std::size_t n = 1; n <= kArrivals; ++n) {
                const std::optional<stream::WindowResult> result =
                    pipeline.push(series.frames[n - 1]);
                const bool due =
                    emitted < starts.size() && n == starts[emitted] + window;
                ASSERT_EQ(result.has_value(), due)
                    << "window " << window << " hop " << hop
                    << " arrival " << n;
                if (result) {
                    EXPECT_EQ(result->window_index, emitted);
                    EXPECT_EQ(result->first_frame, starts[emitted]);
                    EXPECT_EQ(result->frame_count, window);
                    ++emitted;
                }
            }
            EXPECT_EQ(emitted, starts.size());
            EXPECT_EQ(pipeline.windows_emitted(), starts.size());
            EXPECT_EQ(pipeline.frames_consumed(), kArrivals);
        }
    }
}

// The FrameRing.* and WindowPlanner.* suites are named after the ring and
// planner classes that StreamingPipeline absorbed; they keep their test
// IDs and check the same properties through the pipeline.

TEST(FrameRing, MatchesReferenceDequeAtEveryCapacityAndPushCount) {
    constexpr std::size_t kArrivals = 21;
    const csi::CsiSeries series = indexed_series(kArrivals);
    for (std::size_t window = 1; window <= 8; ++window) {
        // hop 1 emits at every push once `window` frames are held, so
        // every push count past the first window is checked.
        stream::StreamingPipeline pipeline = small_pipeline(window, 1);
        std::deque<std::uint64_t> reference;  // global indices held
        for (std::uint64_t pushed = 0; pushed < kArrivals; ++pushed) {
            const std::optional<stream::WindowResult> result =
                pipeline.push(series.frames[pushed]);
            reference.push_back(pushed);
            if (reference.size() > window) {
                reference.pop_front();
            }

            EXPECT_EQ(pipeline.frames_consumed(), pushed + 1);
            ASSERT_EQ(result.has_value(), reference.size() == window)
                << "window " << window << " push " << pushed;
            if (result) {
                EXPECT_EQ(result->first_frame, reference.front());
                EXPECT_EQ(result->frame_count, reference.size());
                EXPECT_EQ(result->first_timestamp_s,
                          static_cast<double>(reference.front()));
                EXPECT_EQ(result->last_timestamp_s,
                          static_cast<double>(reference.back()));
            }
        }
    }
}

TEST(FrameRing, WindowIntoMaterializesNewestFramesOldestFirst) {
    const csi::CsiSeries series = indexed_series(40);
    const csi::CsiSeries baseline = small_baseline();
    // Windows of 8+ frames run the order-sensitive wavelet stage, so
    // bit-identical features also pin the frame order.
    const std::pair<std::size_t, std::size_t> schedules[] = {
        {1, 1}, {6, 4}, {12, 5}, {12, 12}, {16, 3}};
    for (const auto& [window, hop] : schedules) {
        stream::StreamingPipeline pipeline = small_pipeline(window, hop);
        const std::vector<stream::WindowResult> windows =
            feed(pipeline, series);
        ASSERT_FALSE(windows.empty());
        for (const stream::WindowResult& result : windows) {
            const auto first =
                static_cast<std::ptrdiff_t>(result.first_frame);
            EXPECT_EQ(result.first_timestamp_s,
                      static_cast<double>(result.first_frame));
            EXPECT_EQ(result.last_timestamp_s,
                      static_cast<double>(result.first_frame + window - 1));
            csi::CsiSeries slice;
            slice.frames.assign(
                series.frames.begin() + first,
                series.frames.begin() + first +
                    static_cast<std::ptrdiff_t>(window));
            expect_same_bits(result.features,
                             core::extract_feature_vector(
                                 baseline, slice, kPairs, kSubcarrierSet,
                                 core::FeatureConfig{}));
        }
    }
}

TEST(StreamWindow, ResetReplaysTheSameSequence) {
    const csi::CsiSeries series = indexed_series(25);
    stream::StreamingPipeline pipeline = small_pipeline(5, 2);
    const std::vector<stream::WindowResult> first = feed(pipeline, series);
    ASSERT_EQ(first.size(), 11u);

    // Reset mid-window, after the slots have wrapped.
    for (std::size_t i = 0; i < 8; ++i) {
        pipeline.push(series.frames[i]);
    }
    pipeline.reset();
    EXPECT_EQ(pipeline.frames_consumed(), 0u);
    EXPECT_EQ(pipeline.windows_emitted(), 0u);

    const std::vector<stream::WindowResult> again = feed(pipeline, series);
    ASSERT_EQ(again.size(), first.size());
    for (std::size_t j = 0; j < first.size(); ++j) {
        EXPECT_EQ(again[j].window_index, first[j].window_index);
        EXPECT_EQ(again[j].first_frame, first[j].first_frame);
        EXPECT_EQ(again[j].frame_count, first[j].frame_count);
        EXPECT_EQ(again[j].first_timestamp_s, first[j].first_timestamp_s);
        EXPECT_EQ(again[j].last_timestamp_s, first[j].last_timestamp_s);
        expect_same_bits(again[j].features, first[j].features);
    }
}

TEST(FrameRing, RejectsZeroCapacity) {
    EXPECT_THROW(small_pipeline(0, 0), Error);
    EXPECT_NO_THROW(small_pipeline(1, 0));
}

TEST(FrameRing, PinsGeometryOnFirstPush) {
    stream::StreamingPipeline pipeline = small_pipeline(4, 1);
    const csi::CsiSeries series = indexed_series(2);
    const csi::CsiSeries three_antennas = testutil::synthetic_series(
        {1.0, 1.0, 1.0}, {0.0, 0.0, 0.0}, 1, 0.0, 0.0, 1, kSubcarriers);
    const csi::CsiSeries more_subcarriers = testutil::synthetic_series(
        {1.0, 1.0}, {0.0, 0.0}, 1, 0.0, 0.0, 1, kSubcarriers + 1);

    // A frame with no antennas or subcarriers can never pin the counts.
    EXPECT_THROW(pipeline.push(csi::CsiFrame()), Error);
    pipeline.push(series.frames[0]);
    EXPECT_THROW(pipeline.push(three_antennas.frames[0]), Error);
    EXPECT_THROW(pipeline.push(more_subcarriers.frames[0]), Error);
    EXPECT_THROW(pipeline.push(csi::CsiFrame()), Error);
    EXPECT_EQ(pipeline.frames_consumed(), 1u);

    // reset() forgets the frames but not the pinned counts.
    pipeline.reset();
    EXPECT_THROW(pipeline.push(three_antennas.frames[0]), Error);
    EXPECT_THROW(pipeline.push(more_subcarriers.frames[0]), Error);
    pipeline.push(series.frames[1]);
    EXPECT_EQ(pipeline.frames_consumed(), 1u);
}

TEST(WindowPlanner, RejectsInvalidGeometry) {
    EXPECT_THROW(small_pipeline(0, 0), Error);
    EXPECT_THROW(small_pipeline(4, 5), Error);
    EXPECT_NO_THROW(small_pipeline(4, 4));
    EXPECT_NO_THROW(small_pipeline(4, 0));
}

// ---------------------------------------------------------------------
// Fault injection: a corrupt frame in the middle of a window, read
// under each policy and fed into the windowed pipeline.

/// Runs the read-then-stream path over `bytes` under `policy`.
struct StreamOutcome {
    csi::TraceReadReport report;
    std::uint64_t frames = 0;
    std::vector<stream::WindowResult> windows;
};

StreamOutcome stream_bytes(const std::string& bytes,
                           csi::ReadPolicy policy) {
    StreamOutcome outcome;
    const csi::CsiSeries series =
        csi::fault::read_bytes(bytes, {policy}, &outcome.report);
    stream::StreamingPipeline pipeline = small_pipeline(5, 5);
    for (const csi::CsiFrame& frame : series.frames) {
        ++outcome.frames;
        if (std::optional<stream::WindowResult> result =
                pipeline.push(frame)) {
            // One Omega per (subcarrier, pair): 3 x 1 here.
            EXPECT_EQ(result->features.size(), 3u);
            outcome.windows.push_back(std::move(*result));
        }
    }
    return outcome;
}

std::string corrupt_mid_window_bytes() {
    const std::string bytes =
        csi::fault::serialize(stream_series(), csi::kTraceVersion2);
    const std::size_t record =
        csi::fault::record_bytes(csi::kTraceVersion2, kAntennas,
                                 kSubcarriers);
    // Flip one payload bit inside frame kCorruptFrame — mid-stream and
    // mid-window for the 5/5 tumbling schedule.
    const std::size_t offset =
        csi::fault::kHeaderBytesV2 + kCorruptFrame * record + 24;
    return csi::fault::flip_bit(bytes, offset * 8 + 3);
}

TEST(StreamFaults, StrictPolicyRefusesTheCorruptStream) {
    EXPECT_THROW(stream_bytes(corrupt_mid_window_bytes(),
                              csi::ReadPolicy::kStrict),
                 Error);
}

TEST(StreamFaults, SkipCorruptShiftsTheStreamByOneFrame) {
    const StreamOutcome outcome = stream_bytes(
        corrupt_mid_window_bytes(), csi::ReadPolicy::kSkipCorrupt);
    EXPECT_EQ(outcome.report.frames_skipped, 1u);
    EXPECT_EQ(outcome.report.crc_failures, 1u);
    EXPECT_EQ(outcome.frames, kPackets - 1);
    // 19 surviving frames through a 5/5 tumbling window: 3 windows; the
    // dropped frame shifts the tail, it does not poison a window.
    ASSERT_EQ(outcome.windows.size(), 3u);
    for (std::size_t j = 0; j < outcome.windows.size(); ++j) {
        EXPECT_EQ(outcome.windows[j].first_frame, j * 5);
        EXPECT_EQ(outcome.windows[j].frame_count, 5u);
    }
}

TEST(StreamFaults, StopAtCorruptionStreamsTheCleanPrefix) {
    const StreamOutcome outcome = stream_bytes(
        corrupt_mid_window_bytes(), csi::ReadPolicy::kStopAtCorruption);
    EXPECT_TRUE(outcome.report.stopped_at_corruption);
    EXPECT_EQ(outcome.frames, kCorruptFrame);
    EXPECT_EQ(outcome.windows.size(), 2u);  // frames 10: windows at 5, 10
}

TEST(StreamFaults, TornTailStreamsOnlyFullyLandedFrames) {
    const std::string bytes =
        csi::fault::serialize(stream_series(), csi::kTraceVersion2);
    const std::size_t record =
        csi::fault::record_bytes(csi::kTraceVersion2, kAntennas,
                                 kSubcarriers);
    // 15 frames landed, then stale sector garbage.
    const std::string torn = csi::fault::torn_write(
        bytes, csi::fault::kHeaderBytesV2 + 15 * record + record / 3, 64,
        5);
    const StreamOutcome outcome =
        stream_bytes(torn, csi::ReadPolicy::kSkipCorrupt);
    EXPECT_TRUE(outcome.report.truncated);
    EXPECT_EQ(outcome.frames, 15u);
    EXPECT_EQ(outcome.windows.size(), 3u);
}

TEST(StreamFaults, ChecksumConsistentNonFiniteFrameIsStillCaught) {
    // A writer that serialized NaN: CRC is valid, only the finite-values
    // check can reject it.
    const std::string bytes = csi::fault::patch_payload_double(
        csi::fault::serialize(stream_series(), csi::kTraceVersion2),
        kCorruptFrame, 2, std::numeric_limits<double>::quiet_NaN());

    EXPECT_THROW(stream_bytes(bytes, csi::ReadPolicy::kStrict), Error);

    const StreamOutcome skipped =
        stream_bytes(bytes, csi::ReadPolicy::kSkipCorrupt);
    EXPECT_EQ(skipped.report.non_finite_frames, 1u);
    EXPECT_EQ(skipped.frames, kPackets - 1);
    EXPECT_EQ(skipped.windows.size(), 3u);

    const StreamOutcome stopped =
        stream_bytes(bytes, csi::ReadPolicy::kStopAtCorruption);
    EXPECT_EQ(stopped.frames, kCorruptFrame);
    EXPECT_EQ(stopped.windows.size(), 2u);
}

TEST(StreamFaults, LyingHeaderCannotOverrunTheStream) {
    // Header claims 1000 frames; only 20 exist. The lenient reader
    // reports truncation and the pipeline just sees a shorter stream.
    const std::string bytes = csi::fault::patch_frame_count(
        csi::fault::serialize(stream_series(), csi::kTraceVersion2), 1000);
    const StreamOutcome outcome =
        stream_bytes(bytes, csi::ReadPolicy::kSkipCorrupt);
    EXPECT_TRUE(outcome.report.truncated);
    EXPECT_EQ(outcome.frames, kPackets);
    EXPECT_EQ(outcome.windows.size(), 4u);
}

}  // namespace
}  // namespace wimi
