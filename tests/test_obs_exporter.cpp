// Tests for the telemetry exporter (obs/exporter): wimi.metrics.v1 JSONL
// validity, strictly increasing sequence numbers, counter deltas, the
// periodic flush thread, Prometheus rendering, and concurrency (the
// latter doubling as the TSan target alongside the logger tests).
#include "obs/exporter.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "scratch_dir.hpp"

namespace wimi::obs {
namespace {

std::string temp_path(const std::string& name) {
    return (testutil::scratch_dir() / name).string();
}

std::vector<json::Value> read_jsonl(const std::string& path) {
    std::ifstream in(path);
    std::vector<json::Value> docs;
    std::string line;
    while (std::getline(in, line)) {
        docs.push_back(json::parse(line));
    }
    return docs;
}

TEST(ObsExporter, FlushAppendsValidJsonlWithIncreasingSeq) {
    const std::string path = temp_path("wimi_exporter_flush.jsonl");
    std::filesystem::remove(path);
    MetricsRegistry reg;
    reg.counter("csi.packets").add(100);
    reg.gauge("calib.residual").set(4.5);
    reg.histogram("stage.us", {10.0, 100.0}).record(42.0);

    TelemetryExporterOptions options;
    options.path = path;
    options.source = &reg;
    TelemetryExporter exporter(options);
    EXPECT_EQ(exporter.sequence(), 0u);
    EXPECT_EQ(exporter.flush(), 1u);
    reg.counter("csi.packets").add(50);
    EXPECT_EQ(exporter.flush(), 2u);
    EXPECT_EQ(exporter.flush(), 3u);

    const auto docs = read_jsonl(path);
    ASSERT_EQ(docs.size(), 3u);
    double prev_seq = 0.0;
    for (const json::Value& doc : docs) {
        EXPECT_EQ(doc.find("schema")->string, "wimi.metrics.v1");
        ASSERT_TRUE(doc.find("seq")->is_number());
        EXPECT_GT(doc.find("seq")->num, prev_seq);  // strictly increasing
        prev_seq = doc.find("seq")->num;
        ASSERT_TRUE(doc.find("unix_ms")->is_number());
        ASSERT_TRUE(doc.find("uptime_us")->is_number());
        ASSERT_TRUE(doc.find("counters")->is_object());
        ASSERT_TRUE(doc.find("gauges")->is_object());
        ASSERT_TRUE(doc.find("histograms")->is_object());
        ASSERT_TRUE(doc.find("counter_deltas")->is_object());
    }
    // Values and deltas: first flush reports since-zero, later flushes
    // since the previous flush.
    EXPECT_EQ(docs[0].find("counters")->find("csi.packets")->num, 100.0);
    EXPECT_EQ(docs[0].find("counter_deltas")->find("csi.packets")->num,
              100.0);
    EXPECT_EQ(docs[1].find("counters")->find("csi.packets")->num, 150.0);
    EXPECT_EQ(docs[1].find("counter_deltas")->find("csi.packets")->num,
              50.0);
    EXPECT_EQ(docs[2].find("counter_deltas")->find("csi.packets")->num,
              0.0);
    EXPECT_EQ(docs[0].find("gauges")->find("calib.residual")->num, 4.5);
    // The histogram member matches the batch-report shape.
    const json::Value* hist =
        docs[0].find("histograms")->find("stage.us");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->find("count")->num, 1.0);
    EXPECT_EQ(hist->find("sum")->num, 42.0);
    ASSERT_NE(hist->find("bucket_le"), nullptr);
    std::filesystem::remove(path);
}

TEST(ObsExporter, DeltaRebasesWhenCounterShrinks) {
    MetricsRegistry reg;
    reg.counter("events").add(500);
    TelemetryExporterOptions options;
    options.source = &reg;
    TelemetryExporter exporter(options);
    exporter.flush();
    // A registry reset (new experiment) shrinks the counter; the delta
    // must rebase to the new absolute value, not underflow.
    reg.reset();
    reg.counter("events").add(30);
    exporter.flush();
    const json::Value doc = json::parse(exporter.last_line());
    EXPECT_EQ(doc.find("counter_deltas")->find("events")->num, 30.0);
}

TEST(ObsExporter, EmptyPathStillAdvancesSeqAndRetainsLastLine) {
    MetricsRegistry reg;
    reg.counter("events").add(7);
    TelemetryExporterOptions options;
    options.source = &reg;
    TelemetryExporter exporter(options);
    EXPECT_EQ(exporter.flush(), 1u);
    const json::Value doc = json::parse(exporter.last_line());
    EXPECT_EQ(doc.find("seq")->num, 1.0);
    EXPECT_EQ(doc.find("counters")->find("events")->num, 7.0);
}

TEST(ObsExporter, UnopenableSinkThrows) {
    TelemetryExporterOptions options;
    options.path = "/nonexistent-dir/nested/telemetry.jsonl";
    EXPECT_THROW(TelemetryExporter exporter(options), wimi::Error);
}

TEST(ObsExporter, PeriodicThreadFlushesUntilStopped) {
    const std::string path = temp_path("wimi_exporter_periodic.jsonl");
    std::filesystem::remove(path);
    MetricsRegistry reg;
    TelemetryExporterOptions options;
    options.path = path;
    options.interval = std::chrono::milliseconds(5);
    options.source = &reg;
    TelemetryExporter exporter(options);
    exporter.start();
    exporter.start();  // idempotent
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (exporter.sequence() < 3 &&
           std::chrono::steady_clock::now() < deadline) {
        reg.counter("ticks").add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    exporter.stop();  // joins and performs a final flush
    exporter.stop();  // safe to repeat
    const std::uint64_t final_seq = exporter.sequence();
    EXPECT_GE(final_seq, 4u);  // >=3 periodic + 1 final

    const auto docs = read_jsonl(path);
    ASSERT_EQ(docs.size(), static_cast<std::size_t>(final_seq));
    for (std::size_t i = 0; i < docs.size(); ++i) {
        EXPECT_EQ(docs[i].find("seq")->num, static_cast<double>(i + 1));
    }
    std::filesystem::remove(path);
}

TEST(ObsExporter, ConcurrentFlushersStaySequential) {
    // Two on-demand flushers race the registry writer; every seq must be
    // claimed exactly once. Exercised under TSan by the obs sanitizer job.
    MetricsRegistry reg;
    TelemetryExporterOptions options;
    options.source = &reg;
    TelemetryExporter exporter(options);
    constexpr int kFlushesPerThread = 50;
    std::set<std::uint64_t> seqs;
    std::mutex seqs_mutex;
    std::thread writer([&reg] {
        for (int i = 0; i < 400; ++i) {
            reg.counter("race").add(1);
            reg.gauge("load").set(i);
        }
    });
    std::vector<std::thread> flushers;
    for (int t = 0; t < 2; ++t) {
        flushers.emplace_back([&] {
            for (int i = 0; i < kFlushesPerThread; ++i) {
                const std::uint64_t seq = exporter.flush();
                const std::lock_guard<std::mutex> lock(seqs_mutex);
                seqs.insert(seq);
            }
        });
    }
    writer.join();
    for (std::thread& t : flushers) {
        t.join();
    }
    EXPECT_EQ(seqs.size(),
              static_cast<std::size_t>(2 * kFlushesPerThread));
    EXPECT_EQ(exporter.sequence(), 2u * kFlushesPerThread);
    EXPECT_NO_THROW(json::parse(exporter.last_line()));
}

TEST(ObsExporter, SanitizePrometheusNames) {
    EXPECT_EQ(sanitize_prometheus_name("csi.packets_captured"),
              "wimi_csi_packets_captured");
    EXPECT_EQ(sanitize_prometheus_name("stage.wall-us/2"),
              "wimi_stage_wall_us_2");
    EXPECT_EQ(sanitize_prometheus_name("a:b"), "wimi_a:b");
}

TEST(ObsExporter, PrometheusRendersCounterGaugeHistogram) {
    MetricsRegistry reg;
    reg.counter("events.total").add(42);
    reg.gauge("queue.depth").set(3.5);
    Histogram& h = reg.histogram("latency.us", {10.0, 100.0});
    h.record(5.0);
    h.record(50.0);
    h.record(5000.0);  // overflow bucket
    const std::string text = render_prometheus(reg.snapshot());

    EXPECT_NE(text.find("# TYPE wimi_events_total counter\n"
                        "wimi_events_total 42"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE wimi_queue_depth gauge\n"
                        "wimi_queue_depth 3.5"),
              std::string::npos);
    // Histogram: cumulative buckets, +Inf equals the total count.
    EXPECT_NE(text.find("# TYPE wimi_latency_us histogram"),
              std::string::npos);
    EXPECT_NE(text.find("wimi_latency_us_bucket{le=\"10\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("wimi_latency_us_bucket{le=\"100\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("wimi_latency_us_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("wimi_latency_us_sum 5055"), std::string::npos);
    EXPECT_NE(text.find("wimi_latency_us_count 3"), std::string::npos);
}

TEST(ObsExporter, PrometheusFromJsonMatchesDirectRendering) {
    // The offline path (wimi_obs export-prom reading a serialized
    // document) must agree with the in-process rendering — this is the
    // round-trip the acceptance criteria pin: counter and gauge values
    // survive registry -> JSON -> Prometheus unchanged.
    MetricsRegistry reg;
    reg.counter("events.total").add(1234);
    reg.gauge("accuracy").set(0.9375);  // exact in binary
    Histogram& h = reg.histogram("latency.us", {10.0, 100.0});
    h.record(7.0);
    h.record(70.0);

    const auto snap = reg.snapshot();
    const std::string direct = render_prometheus(snap);
    const json::Value doc = json::parse(
        "{\"schema\":\"wimi.metrics.v1\"," + metrics_body_json(snap) +
        "}");
    const std::string offline = prometheus_from_metrics_json(doc);
    EXPECT_EQ(offline, direct);
    EXPECT_NE(direct.find("wimi_events_total 1234"), std::string::npos);
    EXPECT_NE(direct.find("wimi_accuracy 0.9375"), std::string::npos);
}

TEST(ObsExporter, PrometheusFromJsonRejectsWrongSchema) {
    EXPECT_THROW(
        prometheus_from_metrics_json(json::parse("{\"schema\":\"x\"}")),
        wimi::Error);
    EXPECT_THROW(prometheus_from_metrics_json(json::parse("[1,2]")),
                 wimi::Error);
}

TEST(ObsExporter, ExporterLineRendersViaOfflinePath) {
    // An exporter JSONL line is itself a wimi.metrics.v1 document.
    MetricsRegistry reg;
    reg.counter("events").add(5);
    TelemetryExporterOptions options;
    options.source = &reg;
    TelemetryExporter exporter(options);
    exporter.flush();
    const std::string text = prometheus_from_metrics_json(
        json::parse(exporter.last_line()));
    EXPECT_NE(text.find("wimi_events 5"), std::string::npos);
}

}  // namespace
}  // namespace wimi::obs
