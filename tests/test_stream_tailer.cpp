// Fault corpus for stream::TraceTailer, the follower of a growing WCSI
// v2 file.
//
// The tailer decodes the same frame records as TraceReader but addresses
// them by offset in a file whose tail may still be landing. These cases
// replay the WCSI fault models (tests/trace_fault_util.hpp) against it:
// a file that appears late, a damaged header, a mid-file CRC flip under
// every ReadPolicy, a CRC-valid non-finite record, and a torn final
// record that must be deferred rather than judged. Every case uses
// idle_timeout_ms = 0, so next() makes one non-blocking pass.
#include "stream/tailer.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "csi/trace_io.hpp"
#include "scratch_dir.hpp"
#include "trace_fault_util.hpp"

namespace wimi::stream {
namespace {

constexpr std::size_t kAntennas = 2;
constexpr std::size_t kSubcarriers = 3;
constexpr std::size_t kFrames = 5;
constexpr std::size_t kRecordBytes =
    16 + kAntennas * kSubcarriers * 16 + 4;

csi::CsiSeries sample_series() {
    Rng rng(29);
    csi::CsiSeries series;
    for (std::size_t p = 0; p < kFrames; ++p) {
        csi::CsiFrame frame(kAntennas, kSubcarriers);
        frame.timestamp_s = 0.01 * static_cast<double>(p);
        frame.rssi_dbm = -45.0 + static_cast<double>(p);
        for (Complex& h : frame.raw()) {
            h = Complex(rng.gaussian(), rng.gaussian());
        }
        series.frames.push_back(std::move(frame));
    }
    return series;
}

std::string pristine_bytes() {
    return csi::fault::serialize(sample_series(), csi::kTraceVersion2);
}

/// Byte offset of frame record `index`.
std::size_t record_offset(std::size_t index) {
    return csi::fault::kHeaderBytesV2 + index * kRecordBytes;
}

std::filesystem::path write_file(const std::string& name,
                                 const std::string& bytes) {
    const auto path = testutil::scratch_dir() / name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
}

TailerConfig config(csi::ReadPolicy policy) {
    TailerConfig cfg;
    cfg.policy = policy;
    cfg.idle_timeout_ms = 0;
    return cfg;
}

/// Drains the tailer; returns the timestamps of the delivered frames.
std::vector<double> drain(TraceTailer& tailer) {
    std::vector<double> stamps;
    while (auto frame = tailer.next()) {
        stamps.push_back(frame->timestamp_s);
    }
    return stamps;
}

std::vector<double> stamps_except(std::size_t skipped) {
    std::vector<double> stamps;
    for (std::size_t p = 0; p < kFrames; ++p) {
        if (p != skipped) {
            stamps.push_back(0.01 * static_cast<double>(p));
        }
    }
    return stamps;
}

TEST(StreamTailer, PristineFileDeliversEveryFrame) {
    const auto path = write_file("pristine.wcsi", pristine_bytes());
    TraceTailer tailer(path, config(csi::ReadPolicy::kStrict));
    EXPECT_EQ(drain(tailer), stamps_except(kFrames));
    EXPECT_TRUE(tailer.header_seen());
    EXPECT_EQ(tailer.antenna_count(), kAntennas);
    EXPECT_EQ(tailer.subcarrier_count(), kSubcarriers);
    EXPECT_EQ(tailer.frames_delivered(), kFrames);
    EXPECT_EQ(tailer.frames_skipped(), 0u);
    EXPECT_FALSE(tailer.stopped());
}

TEST(StreamTailer, FileThatDoesNotExistYetIsWaitedFor) {
    const auto path = testutil::scratch_dir() / "late.wcsi";
    TraceTailer tailer(path, config(csi::ReadPolicy::kStrict));
    EXPECT_FALSE(tailer.next().has_value());
    EXPECT_FALSE(tailer.header_seen());
    EXPECT_FALSE(tailer.stopped());

    // A header that has only partly landed is still "not yet".
    write_file("late.wcsi", pristine_bytes().substr(0, 20));
    EXPECT_FALSE(tailer.next().has_value());
    EXPECT_FALSE(tailer.header_seen());

    write_file("late.wcsi", pristine_bytes());
    EXPECT_EQ(drain(tailer), stamps_except(kFrames));
    EXPECT_TRUE(tailer.header_seen());
}

TEST(StreamTailer, BadHeaderThrowsUnderStrict) {
    // Flip one bit of the antenna count: the header CRC no longer holds.
    const auto path = write_file(
        "bad_header.wcsi", csi::fault::flip_bit(pristine_bytes(), 12 * 8));
    TraceTailer tailer(path, config(csi::ReadPolicy::kStrict));
    EXPECT_THROW(tailer.next(), Error);
    EXPECT_FALSE(tailer.header_seen());
}

TEST(StreamTailer, BadHeaderStopsUnderSkipCorrupt) {
    const auto path = write_file(
        "bad_header.wcsi", csi::fault::flip_bit(pristine_bytes(), 12 * 8));
    TraceTailer tailer(path, config(csi::ReadPolicy::kSkipCorrupt));
    EXPECT_FALSE(tailer.next().has_value());
    EXPECT_TRUE(tailer.stopped());
    EXPECT_FALSE(tailer.header_seen());
    EXPECT_EQ(tailer.frames_delivered(), 0u);
}

TEST(StreamTailer, ZeroDimensionHeaderRejectedEvenWithNoFrames) {
    // write_trace accepts an empty series (0 x 0 cells, 0 frames), and
    // so does read_trace. A tailer cannot follow a file with no record
    // size, so it rejects the header outright.
    const auto path = write_file(
        "empty.wcsi",
        csi::fault::serialize(csi::CsiSeries{}, csi::kTraceVersion2));
    TraceTailer strict(path, config(csi::ReadPolicy::kStrict));
    EXPECT_THROW(strict.next(), Error);
    TraceTailer lenient(path, config(csi::ReadPolicy::kSkipCorrupt));
    EXPECT_FALSE(lenient.next().has_value());
    EXPECT_TRUE(lenient.stopped());
}

TEST(StreamTailer, OversizedCellCountRejected) {
    // The cell cap is the header check's, so the tailer refuses an
    // 8000 x 8000 header before it sizes a record buffer.
    const auto path = write_file(
        "huge.wcsi",
        csi::fault::patch_dimensions(pristine_bytes(), 8000, 8000));
    TraceTailer strict(path, config(csi::ReadPolicy::kStrict));
    EXPECT_THROW(strict.next(), Error);
    EXPECT_FALSE(strict.header_seen());
    TraceTailer lenient(path, config(csi::ReadPolicy::kSkipCorrupt));
    EXPECT_FALSE(lenient.next().has_value());
    EXPECT_TRUE(lenient.stopped());
}

TEST(StreamTailer, FrameCountAboveReaderCapIsFollowed) {
    // TraceReader refuses a header declaring more than 1e8 frames. The
    // tailer counts records from the file size, never from frame_count,
    // so a long capture that grows past that count stays followable.
    const auto path = write_file(
        "long_capture.wcsi",
        csi::fault::patch_frame_count(pristine_bytes(), 1ULL << 40));
    TraceTailer tailer(path, config(csi::ReadPolicy::kStrict));
    EXPECT_EQ(drain(tailer), stamps_except(kFrames));
    EXPECT_TRUE(tailer.header_seen());
}

TEST(StreamTailer, VersionOneFileRejected) {
    const auto path = write_file(
        "v1.wcsi",
        csi::fault::serialize(sample_series(), csi::kTraceVersion1));
    TraceTailer tailer(path, config(csi::ReadPolicy::kStrict));
    EXPECT_THROW(tailer.next(), Error);
}

// A bit flip inside record 2's payload, with records after it: the
// writer has moved on, so the damage is confirmed, not a torn tail.
std::filesystem::path mid_file_flip() {
    return write_file("mid_flip.wcsi",
                      csi::fault::flip_bit(pristine_bytes(),
                                           (record_offset(2) + 40) * 8 + 3));
}

TEST(StreamTailer, MidFileCrcFlipThrowsUnderStrict) {
    TraceTailer tailer(mid_file_flip(), config(csi::ReadPolicy::kStrict));
    ASSERT_TRUE(tailer.next().has_value());
    ASSERT_TRUE(tailer.next().has_value());
    EXPECT_THROW(tailer.next(), Error);
    EXPECT_EQ(tailer.frames_delivered(), 2u);
}

TEST(StreamTailer, MidFileCrcFlipSkippedUnderSkipCorrupt) {
    TraceTailer tailer(mid_file_flip(),
                       config(csi::ReadPolicy::kSkipCorrupt));
    EXPECT_EQ(drain(tailer), stamps_except(2));
    EXPECT_EQ(tailer.frames_delivered(), kFrames - 1);
    EXPECT_EQ(tailer.frames_skipped(), 1u);
    EXPECT_FALSE(tailer.stopped());
}

TEST(StreamTailer, MidFileCrcFlipStopsUnderStopAtCorruption) {
    TraceTailer tailer(mid_file_flip(),
                       config(csi::ReadPolicy::kStopAtCorruption));
    EXPECT_EQ(drain(tailer), (std::vector<double>{0.0, 0.01}));
    EXPECT_TRUE(tailer.stopped());
    EXPECT_EQ(tailer.frames_skipped(), 0u);
    EXPECT_FALSE(tailer.next().has_value());
}

TEST(StreamTailer, CrcValidNonFiniteRecordIsCorruption) {
    // A writer that serialized garbage: the CRC matches, only the
    // finite-values check can catch it.
    const std::string bytes = csi::fault::patch_payload_double(
        pristine_bytes(), 1, 4, std::numeric_limits<double>::quiet_NaN());
    const auto path = write_file("nan.wcsi", bytes);

    TraceTailer strict(path, config(csi::ReadPolicy::kStrict));
    ASSERT_TRUE(strict.next().has_value());
    EXPECT_THROW(strict.next(), Error);

    TraceTailer skip(path, config(csi::ReadPolicy::kSkipCorrupt));
    EXPECT_EQ(drain(skip), stamps_except(1));
    EXPECT_EQ(skip.frames_skipped(), 1u);
}

TEST(StreamTailer, TornFinalRecordDeferredThenAcceptedOnceRewritten) {
    const std::string good = pristine_bytes();
    const std::size_t last = record_offset(kFrames - 1);
    const auto path = write_file(
        "torn.wcsi", csi::fault::flip_bit(good, (last + 20) * 8));

    for (const auto policy : {csi::ReadPolicy::kSkipCorrupt,
                              csi::ReadPolicy::kStopAtCorruption}) {
        TraceTailer tailer(path, config(policy));
        // The newest record fails its CRC, but nothing follows it: the
        // writer's flush may still be landing, so it is not judged.
        EXPECT_EQ(drain(tailer).size(), kFrames - 1);
        EXPECT_EQ(tailer.frames_skipped(), 0u);
        EXPECT_FALSE(tailer.stopped());
    }

    TraceTailer tailer(path, config(csi::ReadPolicy::kSkipCorrupt));
    EXPECT_EQ(drain(tailer).size(), kFrames - 1);
    {
        // The flush lands: the record's bytes are rewritten in place.
        std::fstream io(path, std::ios::binary | std::ios::in |
                                  std::ios::out);
        io.seekp(static_cast<std::streamoff>(last));
        io.write(good.data() + last,
                 static_cast<std::streamsize>(kRecordBytes));
    }
    const auto frame = tailer.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_DOUBLE_EQ(frame->timestamp_s,
                     0.01 * static_cast<double>(kFrames - 1));
    EXPECT_EQ(tailer.frames_delivered(), kFrames);
    EXPECT_EQ(tailer.frames_skipped(), 0u);
}

TEST(StreamTailer, TornFinalRecordThrowsUnderStrictOnceIdle) {
    const std::string good = pristine_bytes();
    const auto path = write_file(
        "torn_strict.wcsi",
        csi::fault::flip_bit(good, (record_offset(kFrames - 1) + 20) * 8));
    TraceTailer tailer(path, config(csi::ReadPolicy::kStrict));
    for (std::size_t p = 0; p + 1 < kFrames; ++p) {
        ASSERT_TRUE(tailer.next().has_value());
    }
    // With no idle budget left the torn record is classified at once.
    EXPECT_THROW(tailer.next(), Error);
}

TEST(StreamTailer, FollowsAFileAsTraceWriterGrowsIt) {
    const auto series = sample_series();
    const auto path = testutil::scratch_dir() / "growing.wcsi";
    csi::TraceWriter writer(path, kAntennas, kSubcarriers);
    TraceTailer tailer(path, config(csi::ReadPolicy::kStrict));
    EXPECT_FALSE(tailer.next().has_value());
    for (const csi::CsiFrame& frame : series.frames) {
        writer.append(frame);
        const auto got = tailer.next();
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->timestamp_s, frame.timestamp_s);
        EXPECT_EQ(got->at(1, 2), frame.at(1, 2));
        EXPECT_FALSE(tailer.next().has_value());
    }
    writer.close();
    EXPECT_EQ(tailer.frames_delivered(), kFrames);
}

}  // namespace
}  // namespace wimi::stream
