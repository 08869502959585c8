// Tests for the obs flight recorder (obs/flight).
//
// The black box must hold its contract under the conditions it exists
// for: exact round-trips when quiet, newest-N retention when the ring
// wraps, torn-record exclusion and total-count accuracy under
// concurrent appends, valid wimi.flight.v1 JSONL output, and automatic
// snapshots when errors burst.
#include "obs/flight.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "scratch_dir.hpp"

namespace wimi::obs {
namespace {

/// Default options but for the ring capacity.
FlightRecorderOptions options_with_capacity(std::size_t capacity) {
    FlightRecorderOptions options;
    options.capacity = capacity;
    return options;
}

FlightSample sample_with(std::uint64_t request_id,
                         FlightOutcome outcome = FlightOutcome::kOk) {
    FlightSample sample;
    sample.trace_id = request_id * 1000 + 1;
    sample.request_id = request_id;
    sample.arrival_ts_us = 10.0 * static_cast<double>(request_id);
    sample.queue_us = 1.5;
    sample.e2e_us = 250.25;
    sample.batch_size = 4;
    sample.outcome = outcome;
    sample.sampled = (request_id % 2) == 0;
    return sample;
}

TEST(ObsFlight, AppendSnapshotRoundTrips) {
    FlightRecorder recorder(options_with_capacity(8));
    ASSERT_TRUE(recorder.enabled());
    const std::uint32_t digest = recorder.intern_digest("cafef00d");
    for (std::uint64_t id = 1; id <= 3; ++id) {
        FlightSample sample = sample_with(id);
        sample.digest_index = digest;
        recorder.append(sample);
    }
    const std::vector<FlightRecord> records = recorder.snapshot();
    ASSERT_EQ(records.size(), 3u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        const FlightRecord& record = records[i];
        EXPECT_EQ(record.seq, i + 1);
        EXPECT_EQ(record.sample.request_id, i + 1);
        EXPECT_EQ(record.sample.trace_id, (i + 1) * 1000 + 1);
        EXPECT_EQ(record.sample.queue_us, 1.5);
        EXPECT_EQ(record.sample.e2e_us, 250.25);
        EXPECT_EQ(record.sample.batch_size, 4u);
        EXPECT_EQ(record.sample.outcome, FlightOutcome::kOk);
        EXPECT_EQ(record.model_digest, "cafef00d");
    }
    EXPECT_EQ(recorder.total_appended(), 3u);
}

TEST(ObsFlight, RingKeepsTheNewestRecords) {
    FlightRecorder recorder(options_with_capacity(4));
    for (std::uint64_t id = 1; id <= 10; ++id) {
        recorder.append(sample_with(id));
    }
    const std::vector<FlightRecord> records = recorder.snapshot();
    ASSERT_EQ(records.size(), 4u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].seq, 7 + i);  // oldest first
        EXPECT_EQ(records[i].sample.request_id, 7 + i);
    }
    EXPECT_EQ(recorder.total_appended(), 10u);
}

TEST(ObsFlight, ZeroCapacityDisablesEverything) {
    FlightRecorder recorder(options_with_capacity(0));
    EXPECT_FALSE(recorder.enabled());
    EXPECT_EQ(recorder.intern_digest("cafef00d"), 0u);
    recorder.append(sample_with(1));
    EXPECT_EQ(recorder.total_appended(), 0u);
    EXPECT_TRUE(recorder.snapshot().empty());
    EXPECT_TRUE(recorder.dump_json().empty());
}

TEST(ObsFlight, DigestInterningDeduplicates) {
    FlightRecorder recorder(options_with_capacity(2));
    const std::uint32_t a = recorder.intern_digest("aaaa");
    const std::uint32_t b = recorder.intern_digest("bbbb");
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
    EXPECT_EQ(recorder.intern_digest("aaaa"), a);
    EXPECT_EQ(recorder.intern_digest(""), 0u);
}

TEST(ObsFlight, DumpJsonIsValidFlightV1Jsonl) {
    FlightRecorder recorder(options_with_capacity(8));
    const std::uint32_t digest = recorder.intern_digest("deadbeef");
    FlightSample ok = sample_with(1);
    ok.digest_index = digest;
    recorder.append(ok);
    recorder.append(sample_with(2, FlightOutcome::kOverloaded));

    const std::string dump = recorder.dump_json();
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < dump.size()) {
        const std::size_t end = dump.find('\n', start);
        lines.push_back(dump.substr(start, end - start));
        start = end + 1;
    }
    ASSERT_EQ(lines.size(), 2u);

    const json::Value first = json::parse(lines[0]);
    EXPECT_EQ(first.find("schema")->string, "wimi.flight.v1");
    EXPECT_EQ(first.find("seq")->num, 1.0);
    EXPECT_EQ(first.find("request")->num, 1.0);
    EXPECT_EQ(first.find("outcome")->string, "ok");
    EXPECT_EQ(first.find("digest")->string, "deadbeef");

    const json::Value second = json::parse(lines[1]);
    EXPECT_EQ(second.find("outcome")->string, "overloaded");
    EXPECT_EQ(second.find("digest")->string, "");
}

TEST(ObsFlight, AutoSnapshotFiresOnErrorBurst) {
    const std::string path =
        (testutil::scratch_dir() /
         "wimi_flight_burst_test.jsonl")
            .string();
    std::remove(path.c_str());
    FlightRecorderOptions options;
    options.capacity = 16;
    options.snapshot_path = path;
    options.burst_threshold = 4;
    options.snapshot_min_interval_us = 0.0;
    FlightRecorder recorder(options);

    recorder.append(sample_with(1));  // ok records never count
    EXPECT_EQ(recorder.auto_snapshots(), 0u);
    for (std::uint64_t id = 2; id <= 5; ++id) {
        recorder.append(sample_with(id, FlightOutcome::kOverloaded));
    }
    EXPECT_EQ(recorder.auto_snapshots(), 1u);
    ASSERT_TRUE(std::filesystem::exists(path));
    // The snapshot file holds the ring as of the burst.
    std::ifstream in(path);
    std::string line;
    std::size_t overloaded = 0;
    while (std::getline(in, line)) {
        const json::Value doc = json::parse(line);
        if (doc.find("outcome")->string == "overloaded") {
            ++overloaded;
        }
    }
    EXPECT_GE(overloaded, 4u);
    std::remove(path.c_str());
}

TEST(ObsFlight, ConcurrentAppendsNeverProduceTornRecords) {
    // Each sample encodes request_id into every numeric field, so a
    // record mixing two writers is detectable. The seqlock must either
    // drop such slots or never produce them.
    FlightRecorder recorder(options_with_capacity(64));
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 2000;
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&recorder, t] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                const std::uint64_t id =
                    static_cast<std::uint64_t>(t) * kPerThread + i + 1;
                FlightSample sample;
                sample.trace_id = id;
                sample.request_id = id;
                sample.arrival_ts_us = static_cast<double>(id);
                sample.queue_us = static_cast<double>(id);
                sample.e2e_us = static_cast<double>(id);
                sample.batch_size = static_cast<std::uint32_t>(id % 1000);
                recorder.append(sample);
            }
        });
    }
    // Read concurrently with the writers: torn slots must be dropped,
    // surviving records must be internally consistent.
    for (int pass = 0; pass < 50; ++pass) {
        for (const FlightRecord& record : recorder.snapshot()) {
            const std::uint64_t id = record.sample.request_id;
            EXPECT_EQ(record.sample.trace_id, id);
            EXPECT_EQ(record.sample.arrival_ts_us,
                      static_cast<double>(id));
            EXPECT_EQ(record.sample.queue_us, static_cast<double>(id));
            EXPECT_EQ(record.sample.e2e_us, static_cast<double>(id));
            EXPECT_EQ(record.sample.batch_size, id % 1000);
        }
    }
    for (std::thread& writer : writers) {
        writer.join();
    }
    EXPECT_EQ(recorder.total_appended(), kThreads * kPerThread);
    EXPECT_EQ(recorder.snapshot().size(), 64u);  // quiescent: none torn
}

}  // namespace
}  // namespace wimi::obs
