// Tests for CSI trace serialization.
#include "csi/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "scratch_dir.hpp"

namespace wimi::csi {
namespace {

CsiSeries sample_series(std::size_t packets) {
    Rng rng(3);
    CsiSeries series;
    for (std::size_t p = 0; p < packets; ++p) {
        CsiFrame frame(2, 5);
        frame.timestamp_s = 0.01 * static_cast<double>(p);
        frame.rssi_dbm = -40.0 - static_cast<double>(p);
        for (Complex& h : frame.raw()) {
            h = Complex(rng.gaussian(), rng.gaussian());
        }
        series.frames.push_back(std::move(frame));
    }
    return series;
}

void expect_equal(const CsiSeries& a, const CsiSeries& b) {
    ASSERT_EQ(a.packet_count(), b.packet_count());
    ASSERT_EQ(a.antenna_count(), b.antenna_count());
    ASSERT_EQ(a.subcarrier_count(), b.subcarrier_count());
    for (std::size_t p = 0; p < a.packet_count(); ++p) {
        EXPECT_DOUBLE_EQ(a.frames[p].timestamp_s, b.frames[p].timestamp_s);
        EXPECT_DOUBLE_EQ(a.frames[p].rssi_dbm, b.frames[p].rssi_dbm);
        for (std::size_t i = 0; i < a.frames[p].raw().size(); ++i) {
            EXPECT_EQ(a.frames[p].raw()[i], b.frames[p].raw()[i]);
        }
    }
}

TEST(TraceIo, StreamRoundTrip) {
    const auto series = sample_series(7);
    std::stringstream buffer;
    write_trace(buffer, series);
    const auto back = read_trace(buffer);
    expect_equal(series, back);
}

TEST(TraceIo, EmptySeriesRoundTrip) {
    CsiSeries empty;
    std::stringstream buffer;
    write_trace(buffer, empty);
    const auto back = read_trace(buffer);
    EXPECT_TRUE(back.empty());
}

TEST(TraceIo, FileRoundTrip) {
    const auto series = sample_series(3);
    const auto path =
        testutil::scratch_dir() / "wimi_trace_test.wcsi";
    write_trace_file(path, series);
    const auto back = read_trace_file(path);
    expect_equal(series, back);
    std::filesystem::remove(path);
}

TEST(TraceIo, BadMagicRejected) {
    std::stringstream buffer;
    buffer << "NOPE and some garbage follows here";
    EXPECT_THROW(read_trace(buffer), Error);
}

TEST(TraceIo, TruncatedStreamRejected) {
    const auto series = sample_series(4);
    std::stringstream buffer;
    write_trace(buffer, series);
    const std::string full = buffer.str();
    std::stringstream truncated(full.substr(0, full.size() / 2));
    EXPECT_THROW(read_trace(truncated), Error);
}

TEST(TraceIo, MissingFileRejected) {
    EXPECT_THROW(read_trace_file("/nonexistent/path/to/trace.wcsi"), Error);
}

TEST(TraceIo, InconsistentSeriesRejectedOnWrite) {
    CsiSeries series;
    series.frames.emplace_back(2, 5);
    series.frames.front().at(0, 0) = Complex(1.0, 0.0);
    series.frames.emplace_back(3, 5);
    std::stringstream buffer;
    EXPECT_THROW(write_trace(buffer, series), Error);
}

TEST(TraceIo, WritesCurrentVersionByDefault) {
    const auto series = sample_series(2);
    std::stringstream buffer;
    write_trace(buffer, series);
    TraceReadReport report;
    read_trace(buffer, {}, &report);
    EXPECT_EQ(report.version, kTraceVersion2);
    EXPECT_TRUE(report.clean());
}

TEST(TraceIo, V1RoundTripStillSupported) {
    const auto series = sample_series(6);
    std::stringstream buffer;
    write_trace(buffer, series, {kTraceVersion1});
    TraceReadReport report;
    const auto back = read_trace(buffer, {}, &report);
    expect_equal(series, back);
    EXPECT_EQ(report.version, kTraceVersion1);
    EXPECT_TRUE(report.clean());
}

TEST(TraceIo, V1ToV2MigrationPreservesEveryBit) {
    const auto series = sample_series(9);
    std::stringstream v1;
    write_trace(v1, series, {kTraceVersion1});
    const auto from_v1 = read_trace(v1);
    std::stringstream v2;
    write_trace(v2, from_v1, {kTraceVersion2});
    const auto from_v2 = read_trace(v2);
    expect_equal(series, from_v2);
}

TEST(TraceIo, EmptySeriesRoundTripBothVersions) {
    for (const std::uint32_t version : {kTraceVersion1, kTraceVersion2}) {
        CsiSeries empty;
        std::stringstream buffer;
        write_trace(buffer, empty, {version});
        TraceReadReport report;
        const auto back = read_trace(buffer, {}, &report);
        EXPECT_TRUE(back.empty());
        EXPECT_TRUE(report.clean());
        EXPECT_EQ(report.version, version);
    }
}

TEST(TraceIo, UnsupportedWriteVersionRejected) {
    std::stringstream buffer;
    EXPECT_THROW(write_trace(buffer, sample_series(1), {7}), Error);
}

TEST(TraceIo, NonFiniteSeriesRejectedOnWrite) {
    auto series = sample_series(3);
    series.frames[1].at(0, 2) =
        Complex(std::numeric_limits<double>::quiet_NaN(), 0.0);
    std::stringstream buffer;
    EXPECT_THROW(write_trace(buffer, series), Error);
}

TEST(TraceIo, ByteOrderMarkerChecked) {
    const auto series = sample_series(2);
    std::stringstream buffer;
    write_trace(buffer, series);
    std::string bytes = buffer.str();
    bytes[8] = static_cast<char>(bytes[8] ^ 0xFF);  // marker low byte
    std::stringstream swapped(bytes);
    EXPECT_THROW(read_trace(swapped), Error);
}

TEST(TraceIo, StreamingReaderMatchesWholeSeriesRead) {
    const auto series = sample_series(8);
    std::stringstream buffer;
    write_trace(buffer, series);
    TraceReader reader(buffer);
    EXPECT_EQ(reader.version(), kTraceVersion2);
    EXPECT_EQ(reader.antenna_count(), series.antenna_count());
    EXPECT_EQ(reader.subcarrier_count(), series.subcarrier_count());
    EXPECT_EQ(reader.frames_declared(), series.packet_count());
    std::size_t count = 0;
    while (auto frame = reader.next()) {
        EXPECT_DOUBLE_EQ(frame->timestamp_s,
                         series.frames[count].timestamp_s);
        ++count;
    }
    EXPECT_EQ(count, series.packet_count());
    EXPECT_TRUE(reader.report().clean());
    EXPECT_FALSE(reader.next().has_value());  // stays exhausted
}

TEST(TraceIo, StopAtCorruptionReturnsCleanPrefix) {
    const auto series = sample_series(6);
    std::stringstream buffer;
    write_trace(buffer, series);
    std::string bytes = buffer.str();
    // Flip a payload bit in frame 3 (header is 32 bytes, record is
    // 16 + 2*5*16 + 4 = 180 bytes).
    const std::size_t offset = 32 + 3 * 180 + 10;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x04);
    std::stringstream damaged(bytes);
    TraceReadReport report;
    const auto prefix = read_trace(
        damaged, {ReadPolicy::kStopAtCorruption}, &report);
    ASSERT_EQ(prefix.packet_count(), 3u);
    EXPECT_TRUE(report.stopped_at_corruption);
    EXPECT_EQ(report.crc_failures, 1u);
    for (std::size_t p = 0; p < 3; ++p) {
        EXPECT_DOUBLE_EQ(prefix.frames[p].timestamp_s,
                         series.frames[p].timestamp_s);
    }
}

TEST(TraceIo, SkipCorruptDropsOnlyDamagedFrame) {
    const auto series = sample_series(6);
    std::stringstream buffer;
    write_trace(buffer, series);
    std::string bytes = buffer.str();
    const std::size_t offset = 32 + 2 * 180 + 25;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
    std::stringstream damaged(bytes);
    TraceReadReport report;
    const auto back =
        read_trace(damaged, {ReadPolicy::kSkipCorrupt}, &report);
    ASSERT_EQ(back.packet_count(), 5u);
    EXPECT_EQ(report.frames_skipped, 1u);
    EXPECT_EQ(report.frames_recovered, 5u);
    EXPECT_FALSE(report.clean());
}

TEST(TraceWriterTest, FrameAtATimeWriteMatchesWholeSeriesWrite) {
    const auto series = sample_series(9);
    const auto path = testutil::scratch_dir() /
                      "wimi_trace_writer_test.wcsi";
    {
        TraceWriter writer(path, series.antenna_count(),
                           series.subcarrier_count());
        for (const CsiFrame& frame : series.frames) {
            writer.append(frame);
        }
        EXPECT_EQ(writer.frames_written(), 9u);
        writer.close();
    }
    // Byte-identical to the batch writer, not merely equivalent.
    std::stringstream batch;
    write_trace(batch, series);
    std::ifstream incremental(path, std::ios::binary);
    std::stringstream on_disk;
    on_disk << incremental.rdbuf();
    EXPECT_EQ(on_disk.str(), batch.str());
    std::filesystem::remove(path);
}

TEST(TraceWriterTest, FileIsAValidContainerAfterEveryAppend) {
    const auto series = sample_series(5);
    const auto path = testutil::scratch_dir() /
                      "wimi_trace_writer_growth.wcsi";
    TraceWriter writer(path, series.antenna_count(),
                       series.subcarrier_count());
    for (std::size_t appended = 0; appended <= series.packet_count();
         ++appended) {
        // A reader opening the file mid-growth must see exactly the
        // frames that have fully landed, with a clean report.
        TraceReadReport report;
        const CsiSeries back =
            read_trace_file(path, {ReadPolicy::kStrict}, &report);
        EXPECT_TRUE(report.clean());
        ASSERT_EQ(back.packet_count(), appended);
        if (appended > 0) {
            EXPECT_DOUBLE_EQ(back.frames[appended - 1].timestamp_s,
                             series.frames[appended - 1].timestamp_s);
        }
        if (appended < series.packet_count()) {
            writer.append(series.frames[appended]);
        }
    }
    writer.close();
    std::filesystem::remove(path);
}

TEST(TraceWriterTest, RejectsBadGeometryAndClosedWriter) {
    const auto path = testutil::scratch_dir() /
                      "wimi_trace_writer_reject.wcsi";
    EXPECT_THROW(TraceWriter(path, 0, 5), Error);
    EXPECT_THROW(TraceWriter(path, 2, 0), Error);

    TraceWriter writer(path, 2, 5);
    EXPECT_THROW(writer.append(CsiFrame(3, 5)), Error);
    EXPECT_THROW(writer.append(CsiFrame(2, 4)), Error);
    CsiFrame bad(2, 5);
    bad.timestamp_s = std::numeric_limits<double>::infinity();
    EXPECT_THROW(writer.append(bad), Error);
    writer.close();
    writer.close();  // idempotent
    EXPECT_THROW(writer.append(CsiFrame(2, 5)), Error);
    std::filesystem::remove(path);
}

TEST(TraceIo, CellCapIsInclusive) {
    // 256 x 256 = kMaxFrameCells: written and read back. One more row of
    // subcarriers is over the cap, and the writers refuse it.
    CsiSeries at_cap;
    at_cap.frames.emplace_back(256, 256);
    at_cap.frames.back().at(255, 255) = Complex(1.0, -1.0);
    ASSERT_EQ(256u * 256u, kMaxFrameCells);
    std::stringstream buffer;
    write_trace(buffer, at_cap);
    TraceReadReport report;
    const CsiSeries back = read_trace(buffer, {}, &report);
    EXPECT_TRUE(report.clean());
    ASSERT_EQ(back.packet_count(), 1u);
    EXPECT_EQ(back.frames[0].at(255, 255), Complex(1.0, -1.0));

    CsiSeries over;
    over.frames.emplace_back(257, 256);
    std::stringstream sink;
    EXPECT_THROW(write_trace(sink, over), Error);
    EXPECT_THROW(TraceWriter(testutil::scratch_dir() / "over_cap.wcsi",
                             257, 256),
                 Error);
    // 2^32 x 2^32 wraps to 0 cells in size_t; the per-dimension cap
    // catches it before the product is taken.
    EXPECT_THROW(TraceWriter(testutil::scratch_dir() / "wrap_cap.wcsi",
                             std::size_t{1} << 32, std::size_t{1} << 32),
                 Error);
}

TEST(TraceIo, ReportCleanOnPristineTrace) {
    const auto series = sample_series(4);
    std::stringstream buffer;
    write_trace(buffer, series);
    TraceReadReport report;
    read_trace(buffer, {ReadPolicy::kSkipCorrupt}, &report);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.frames_declared, 4u);
    EXPECT_EQ(report.frames_recovered, 4u);
    EXPECT_EQ(report.crc_failures, 0u);
}

}  // namespace
}  // namespace wimi::csi
