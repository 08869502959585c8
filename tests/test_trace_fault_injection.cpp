// Fault-injection corpus for the WCSI trace reader.
//
// Replays mutated traces — truncation at every byte boundary, seeded bit
// flips, torn writes, lying headers, CRC-valid non-finite payloads —
// against both format versions and asserts the reader never crashes,
// degrades exactly as its ReadPolicy promises, and accounts for every
// dropped frame. Run under WIMI_SANITIZE=address (and undefined) to turn
// "never UBs" into a checked property.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "csi/trace_io.hpp"
#include "obs/obs.hpp"
#include "trace_fault_util.hpp"

namespace wimi::csi {
namespace {

constexpr std::size_t kAntennas = 2;
constexpr std::size_t kSubcarriers = 3;
constexpr std::size_t kFrames = 5;

CsiSeries sample_series(std::size_t packets = kFrames) {
    Rng rng(17);
    CsiSeries series;
    for (std::size_t p = 0; p < packets; ++p) {
        CsiFrame frame(kAntennas, kSubcarriers);
        frame.timestamp_s = 0.01 * static_cast<double>(p);
        frame.rssi_dbm = -38.0 - static_cast<double>(p);
        for (Complex& h : frame.raw()) {
            h = Complex(rng.gaussian(), rng.gaussian());
        }
        series.frames.push_back(std::move(frame));
    }
    return series;
}

bool frames_equal(const CsiFrame& a, const CsiFrame& b) {
    if (a.antenna_count() != b.antenna_count() ||
        a.subcarrier_count() != b.subcarrier_count() ||
        a.timestamp_s != b.timestamp_s || a.rssi_dbm != b.rssi_dbm) {
        return false;
    }
    for (std::size_t i = 0; i < a.raw().size(); ++i) {
        if (a.raw()[i] != b.raw()[i]) {
            return false;
        }
    }
    return true;
}

/// Reads mutated bytes under `policy`, asserting only that the reader
/// terminates in a defined way: a clean return or a wimi::Error. Any
/// other exception (or a crash/sanitizer report) fails the suite.
TraceReadReport read_must_not_crash(const std::string& bytes,
                                    ReadPolicy policy) {
    TraceReadReport report;
    try {
        const auto series =
            fault::read_bytes(bytes, {policy}, &report);
        EXPECT_LE(series.packet_count(), kFrames);
        EXPECT_EQ(series.packet_count(), report.frames_recovered);
    } catch (const Error&) {
        // Defined failure mode.
    }
    return report;
}

// --- truncation at every byte boundary ----------------------------------

TEST(TraceFaultInjection, TruncationSweepStrictAlwaysThrows) {
    const auto series = sample_series();
    for (const std::uint32_t version : {kTraceVersion1, kTraceVersion2}) {
        const std::string bytes = fault::serialize(series, version);
        for (std::size_t len = 0; len < bytes.size(); ++len) {
            SCOPED_TRACE("v" + std::to_string(version) + " len=" +
                         std::to_string(len));
            EXPECT_THROW(fault::read_bytes(fault::truncate_at(bytes, len)),
                         Error);
        }
    }
}

TEST(TraceFaultInjection, TruncationSweepSkipRecoversIntactPrefix) {
    const auto series = sample_series();
    for (const std::uint32_t version : {kTraceVersion1, kTraceVersion2}) {
        const std::string bytes = fault::serialize(series, version);
        const std::size_t header = fault::header_bytes(version);
        const std::size_t record =
            fault::record_bytes(version, kAntennas, kSubcarriers);
        for (std::size_t len = 0; len < bytes.size(); ++len) {
            SCOPED_TRACE("v" + std::to_string(version) + " len=" +
                         std::to_string(len));
            const std::string cut = fault::truncate_at(bytes, len);
            if (len < 8) {
                // Not even magic + version: nothing salvageable.
                EXPECT_THROW(
                    fault::read_bytes(cut, {ReadPolicy::kSkipCorrupt}),
                    Error);
                continue;
            }
            TraceReadReport report;
            const auto back = fault::read_bytes(
                cut, {ReadPolicy::kSkipCorrupt}, &report);
            ASSERT_TRUE(report.truncated);
            if (len < header) {
                EXPECT_FALSE(report.header_ok);
                EXPECT_TRUE(back.empty());
                continue;
            }
            // Every fully-written frame is recovered, bit-identical.
            const std::size_t intact = (len - header) / record;
            ASSERT_EQ(back.packet_count(), intact);
            for (std::size_t p = 0; p < intact; ++p) {
                EXPECT_TRUE(
                    frames_equal(back.frames[p], series.frames[p]));
            }
            // A partial trailing record is accounted as skipped.
            const bool partial = (len - header) % record != 0;
            EXPECT_EQ(report.frames_skipped, partial ? 1u : 0u);
            EXPECT_EQ(report.frames_recovered, intact);
        }
    }
}

// --- seeded bit-flip corpus ---------------------------------------------

TEST(TraceFaultInjection, BitFlipCorpusV2DetectsEveryFlip) {
    const auto series = sample_series();
    const std::string bytes = fault::serialize(series, kTraceVersion2);
    const std::size_t header = fault::header_bytes(kTraceVersion2);
    const std::size_t record =
        fault::record_bytes(kTraceVersion2, kAntennas, kSubcarriers);
    Rng rng(101);
    for (int trial = 0; trial < 1200; ++trial) {
        const std::size_t bit =
            static_cast<std::size_t>(rng.next_u64() % (8 * bytes.size()));
        SCOPED_TRACE("trial=" + std::to_string(trial) + " bit=" +
                     std::to_string(bit));
        const std::string mutated = fault::flip_bit(bytes, bit);

        // Strict: a single flipped bit anywhere in a v2 trace is fatal —
        // every byte is covered by the magic, the version field, the
        // byte-order marker, or a CRC.
        EXPECT_THROW(fault::read_bytes(mutated), Error);

        const std::size_t byte = bit / 8;
        if (byte < 8) {
            // Magic/version flips always throw under every policy.
            EXPECT_THROW(
                fault::read_bytes(mutated, {ReadPolicy::kSkipCorrupt}),
                Error);
            continue;
        }
        TraceReadReport report;
        const auto back = fault::read_bytes(
            mutated, {ReadPolicy::kSkipCorrupt}, &report);
        if (byte < header) {
            // Header damage: nothing recovered, and the report says so.
            EXPECT_FALSE(report.header_ok);
            EXPECT_TRUE(back.empty());
            continue;
        }
        // Frame damage: exactly the hit frame dropped, the rest intact.
        const std::size_t hit = (byte - header) / record;
        ASSERT_EQ(report.frames_skipped, 1u);
        ASSERT_EQ(report.crc_failures, 1u);
        ASSERT_EQ(back.packet_count(), kFrames - 1);
        std::size_t original = 0;
        for (std::size_t p = 0; p < back.packet_count();
             ++p, ++original) {
            if (original == hit) {
                ++original;  // the dropped one
            }
            EXPECT_TRUE(frames_equal(back.frames[p],
                                     series.frames[original]));
        }
    }
}

TEST(TraceFaultInjection, BitFlipCorpusV1NeverCrashes) {
    // v1 has no checksums, so flips may pass silently or surface as
    // dimension/truncation/non-finite failures — the contract is only
    // that the reader terminates in a defined way under every policy.
    const auto series = sample_series();
    const std::string bytes = fault::serialize(series, kTraceVersion1);
    Rng rng(202);
    for (int trial = 0; trial < 1200; ++trial) {
        const std::size_t bit =
            static_cast<std::size_t>(rng.next_u64() % (8 * bytes.size()));
        SCOPED_TRACE("trial=" + std::to_string(trial) + " bit=" +
                     std::to_string(bit));
        const std::string mutated = fault::flip_bit(bytes, bit);
        read_must_not_crash(mutated, ReadPolicy::kStrict);
        read_must_not_crash(mutated, ReadPolicy::kSkipCorrupt);
        read_must_not_crash(mutated, ReadPolicy::kStopAtCorruption);
    }
}

// --- torn writes --------------------------------------------------------

TEST(TraceFaultInjection, TornWriteRecoversPrefixUnderSkip) {
    const auto series = sample_series();
    const std::string bytes = fault::serialize(series, kTraceVersion2);
    const std::size_t header = fault::header_bytes(kTraceVersion2);
    const std::size_t record =
        fault::record_bytes(kTraceVersion2, kAntennas, kSubcarriers);
    Rng rng(303);
    for (int trial = 0; trial < 200; ++trial) {
        // Cut somewhere after the header, then append stale garbage.
        const std::size_t keep =
            header +
            static_cast<std::size_t>(rng.next_u64() %
                                     (bytes.size() - header));
        const std::size_t garbage =
            static_cast<std::size_t>(rng.next_u64() % (2 * record));
        SCOPED_TRACE("trial=" + std::to_string(trial) + " keep=" +
                     std::to_string(keep) + " garbage=" +
                     std::to_string(garbage));
        const std::string torn =
            fault::torn_write(bytes, keep, garbage, rng.next_u64());

        TraceReadReport report;
        const auto back = fault::read_bytes(
            torn, {ReadPolicy::kSkipCorrupt}, &report);
        // Frames wholly before the seam survive; everything the garbage
        // touches fails its CRC. (A 2^-32 accidental CRC match would be
        // a flaky miracle; the seeds here don't produce one.)
        const std::size_t intact = (keep - header) / record;
        ASSERT_EQ(back.packet_count(), intact);
        for (std::size_t p = 0; p < intact; ++p) {
            EXPECT_TRUE(frames_equal(back.frames[p], series.frames[p]));
        }
        read_must_not_crash(torn, ReadPolicy::kStrict);
        read_must_not_crash(torn, ReadPolicy::kStopAtCorruption);
    }
}

// --- lying / oversized headers ------------------------------------------

TEST(TraceFaultInjection, OversizedFrameCountReadsActualFrames) {
    const auto series = sample_series();
    for (const std::uint32_t version : {kTraceVersion1, kTraceVersion2}) {
        SCOPED_TRACE("v" + std::to_string(version));
        const std::string lying = fault::patch_frame_count(
            fault::serialize(series, version), 1'000'000);
        EXPECT_THROW(fault::read_bytes(lying), Error);  // strict
        TraceReadReport report;
        const auto back = fault::read_bytes(
            lying, {ReadPolicy::kSkipCorrupt}, &report);
        EXPECT_EQ(back.packet_count(), kFrames);
        EXPECT_TRUE(report.truncated);
        for (std::size_t p = 0; p < kFrames; ++p) {
            EXPECT_TRUE(frames_equal(back.frames[p], series.frames[p]));
        }
    }
}

TEST(TraceFaultInjection, ImplausibleFrameCountRejectedWithoutAllocating) {
    const auto series = sample_series();
    for (const std::uint32_t version : {kTraceVersion1, kTraceVersion2}) {
        SCOPED_TRACE("v" + std::to_string(version));
        const std::string lying = fault::patch_frame_count(
            fault::serialize(series, version), 1ULL << 62);
        EXPECT_THROW(fault::read_bytes(lying), Error);
        TraceReadReport report;
        const auto back = fault::read_bytes(
            lying, {ReadPolicy::kSkipCorrupt}, &report);
        EXPECT_FALSE(report.header_ok);
        EXPECT_TRUE(back.empty());
    }
}

TEST(TraceFaultInjection, OversizedCellCountRejectedWithoutAllocating) {
    // 8000 x 8000 cells would size a 1 GB record buffer. Each dimension
    // is below the per-dimension cap; only the cell cap catches it.
    const auto series = sample_series();
    for (const std::uint32_t version : {kTraceVersion1, kTraceVersion2}) {
        SCOPED_TRACE("v" + std::to_string(version));
        const std::string lying = fault::patch_dimensions(
            fault::serialize(series, version), 8000, 8000);
        try {
            fault::read_bytes(lying);
            ADD_FAILURE() << "strict read accepted 8000 x 8000 cells";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "implausible header dimensions"),
                      std::string::npos)
                << e.what();
        }
        for (const ReadPolicy policy :
             {ReadPolicy::kSkipCorrupt, ReadPolicy::kStopAtCorruption}) {
            TraceReadReport report;
            const auto back = fault::read_bytes(lying, {policy}, &report);
            EXPECT_FALSE(report.header_ok);
            EXPECT_FALSE(report.truncated);
            EXPECT_TRUE(back.empty());
        }
    }
}

// --- CRC-valid non-finite payloads --------------------------------------

TEST(TraceFaultInjection, NonFinitePayloadCaughtByFiniteCheck) {
    const auto series = sample_series();
    const double bads[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
    for (const std::uint32_t version : {kTraceVersion1, kTraceVersion2}) {
        for (const double bad : bads) {
            SCOPED_TRACE("v" + std::to_string(version));
            // Frame 2, component double #4 (an im part), checksum kept
            // consistent: only the finite-values check can catch this.
            const std::string poisoned = fault::patch_payload_double(
                fault::serialize(series, version), 2, 4, bad);
            EXPECT_THROW(fault::read_bytes(poisoned), Error);

            TraceReadReport report;
            const auto back = fault::read_bytes(
                poisoned, {ReadPolicy::kSkipCorrupt}, &report);
            EXPECT_EQ(back.packet_count(), kFrames - 1);
            EXPECT_EQ(report.non_finite_frames, 1u);
            EXPECT_EQ(report.frames_skipped, 1u);
            EXPECT_EQ(report.crc_failures, 0u);

            TraceReadReport stop_report;
            const auto prefix = fault::read_bytes(
                poisoned, {ReadPolicy::kStopAtCorruption}, &stop_report);
            EXPECT_EQ(prefix.packet_count(), 2u);
            EXPECT_TRUE(stop_report.stopped_at_corruption);
        }
    }
}

// --- obs counters match the injected corruption exactly -----------------

TEST(TraceFaultInjection, ObsCountersMatchInjectedCorruption) {
    obs::set_enabled(true);
    const auto series = sample_series();
    std::string bytes = fault::serialize(series, kTraceVersion2);
    const std::size_t header = fault::header_bytes(kTraceVersion2);
    const std::size_t record =
        fault::record_bytes(kTraceVersion2, kAntennas, kSubcarriers);
    // Corrupt frames 1 and 3: one payload bit each, CRCs left stale.
    const std::size_t injected = 2;
    for (const std::size_t frame : {1u, 3u}) {
        bytes = fault::flip_bit(bytes, 8 * (header + frame * record + 5));
    }

    obs::registry().reset();
    TraceReadReport report;
    const auto back =
        fault::read_bytes(bytes, {ReadPolicy::kSkipCorrupt}, &report);
    EXPECT_EQ(back.packet_count(), kFrames - injected);
    EXPECT_EQ(report.crc_failures, injected);
    EXPECT_EQ(report.frames_skipped, injected);
    EXPECT_EQ(obs::registry().counter("trace.crc_failures").value(),
              injected);
    EXPECT_EQ(obs::registry().counter("trace.frames_skipped").value(),
              injected);
}

}  // namespace
}  // namespace wimi::csi
