// End-to-end report round-trip: run the full WiMi pipeline with
// observability on, serialize the metrics registry and the Chrome trace,
// parse both documents back, and check they agree with the in-memory
// state. This is the machine-readable contract CI diffing relies on.
#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/wimi.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "rf/material.hpp"
#include "sim/scenario.hpp"

namespace wimi::obs {
namespace {

/// Runs calibrate -> enroll -> train -> identify once, populating the
/// global registry and trace buffers.
void run_small_pipeline() {
    set_enabled(true);
    trace_reset();
    registry().reset();

    sim::ScenarioConfig setup;
    setup.environment = rf::Environment::kLab;
    setup.packets = 12;
    const sim::Scenario scenario(setup);

    core::WimiConfig config;
    config.good_subcarrier_count = 4;
    core::Wimi wimi(config);
    wimi.calibrate(scenario.capture_reference(1001));

    Rng rng(7);
    for (const rf::Liquid liquid :
         {rf::Liquid::kPureWater, rf::Liquid::kHoney}) {
        for (int rep = 0; rep < 3; ++rep) {
            const auto m =
                scenario.capture_measurement(liquid, rng.next_u64());
            wimi.enroll(rf::liquid_name(liquid), m.baseline, m.target);
        }
    }
    wimi.train();
    const auto unknown =
        scenario.capture_measurement(rf::Liquid::kHoney, rng.next_u64());
    wimi.identify(unknown.baseline, unknown.target);
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(ObsReport, PipelinePopulatesAtLeastTenMetrics) {
    run_small_pipeline();
    EXPECT_GE(registry().size(), 10u);

    const auto snap = registry().snapshot();
    std::set<std::string> counters;
    for (const auto& [name, value] : snap.counters) {
        counters.insert(name);
    }
    // The domain instrumentation the pipeline is expected to hit.
    EXPECT_TRUE(counters.count("csi.captures"));
    EXPECT_TRUE(counters.count("wimi.enrollments"));
    EXPECT_TRUE(counters.count("wimi.identifications"));
    EXPECT_TRUE(counters.count("feature.vectors_extracted"));
    EXPECT_TRUE(counters.count("svm.smo_passes"));
}

TEST(ObsReport, MetricsJsonRoundTripsAgainstRegistry) {
    run_small_pipeline();
    const json::Value doc = json::parse(metrics_to_json());
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(doc.find("schema")->string, "wimi.metrics.v1");

    const json::Value* counters = doc.find("counters");
    const json::Value* gauges = doc.find("gauges");
    const json::Value* histograms = doc.find("histograms");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(gauges, nullptr);
    ASSERT_NE(histograms, nullptr);

    const auto snap = registry().snapshot();
    EXPECT_GE(snap.counters.size() + snap.gauges.size() +
                  snap.histograms.size(),
              10u);

    // Every snapshot entry appears in the document with the same value.
    for (const auto& [name, value] : snap.counters) {
        const json::Value* v = counters->find(name);
        ASSERT_NE(v, nullptr) << name;
        EXPECT_DOUBLE_EQ(v->num, static_cast<double>(value)) << name;
    }
    for (const auto& [name, value] : snap.gauges) {
        const json::Value* v = gauges->find(name);
        ASSERT_NE(v, nullptr) << name;
        EXPECT_DOUBLE_EQ(v->num, value) << name;
    }
    for (const auto& [name, summary] : snap.histograms) {
        const json::Value* v = histograms->find(name);
        ASSERT_NE(v, nullptr) << name;
        EXPECT_DOUBLE_EQ(v->find("count")->num,
                         static_cast<double>(summary.count))
            << name;
        EXPECT_DOUBLE_EQ(v->find("min")->num, summary.min) << name;
        EXPECT_DOUBLE_EQ(v->find("max")->num, summary.max) << name;
        EXPECT_DOUBLE_EQ(v->find("p50")->num, summary.p50) << name;
        EXPECT_DOUBLE_EQ(v->find("p95")->num, summary.p95) << name;
        EXPECT_DOUBLE_EQ(v->find("p99")->num, summary.p99) << name;
    }
}

TEST(ObsReport, NonFiniteValuesSerializeAsNullAndParseBack) {
    // A NaN gauge (e.g. 0/0 in a quality probe) must not produce the bare
    // `nan` token, which is not JSON and breaks every downstream parser.
    MetricsRegistry reg;
    reg.gauge("bad.ratio").set(std::nan(""));
    reg.gauge("bad.overflow").set(INFINITY);
    reg.gauge("good").set(2.5);
    Histogram& h = reg.histogram("mixed");
    h.record(1.0);
    h.record(std::nan(""));

    const std::string text = metrics_to_json(reg);
    EXPECT_EQ(text.find("nan"), std::string::npos);
    EXPECT_EQ(text.find("inf"), std::string::npos);

    const json::Value doc = json::parse(text);  // must parse cleanly
    const json::Value* gauges = doc.find("gauges");
    ASSERT_NE(gauges, nullptr);
    EXPECT_EQ(gauges->find("bad.ratio")->kind, json::Value::Kind::kNull);
    EXPECT_EQ(gauges->find("bad.overflow")->kind, json::Value::Kind::kNull);
    EXPECT_DOUBLE_EQ(gauges->find("good")->num, 2.5);

    // The histogram quarantined the NaN: finite stats plus an explicit
    // nonfinite tally round-trip through the document.
    const json::Value* mixed = doc.find("histograms")->find("mixed");
    ASSERT_NE(mixed, nullptr);
    EXPECT_DOUBLE_EQ(mixed->find("count")->num, 1.0);
    EXPECT_DOUBLE_EQ(mixed->find("nonfinite")->num, 1.0);
    EXPECT_DOUBLE_EQ(mixed->find("sum")->num, 1.0);
}

TEST(ObsReport, ChromeTraceRoundTripsWithNestedPipelineSpans) {
    run_small_pipeline();
    const json::Value doc = json::parse(trace_to_json());
    const json::Value* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    ASSERT_FALSE(events->array.empty());

    std::set<std::string> names;
    for (const json::Value& e : events->array) {
        names.insert(e.find("name")->string);
    }
    for (const char* expected :
         {"wimi.calibrate", "wimi.enroll", "wimi.train", "svm.train",
          "wimi.identify", "feature.extract"}) {
        EXPECT_TRUE(names.count(expected)) << expected;
    }

    // svm.train must nest inside wimi.train (timestamp containment plus
    // a deeper args.depth), which is exactly how chrome://tracing draws
    // the flame graph.
    const json::Value* outer = nullptr;
    const json::Value* inner = nullptr;
    for (const json::Value& e : events->array) {
        if (e.find("name")->string == "wimi.train") {
            outer = &e;
        }
        if (e.find("name")->string == "svm.train") {
            inner = &e;
        }
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    const double outer_ts = outer->find("ts")->num;
    const double outer_end = outer_ts + outer->find("dur")->num;
    const double inner_ts = inner->find("ts")->num;
    const double inner_end = inner_ts + inner->find("dur")->num;
    EXPECT_LE(outer_ts, inner_ts);
    EXPECT_GE(outer_end, inner_end);
    EXPECT_LT(outer->find("args")->find("depth")->num,
              inner->find("args")->find("depth")->num);
}

TEST(ObsReport, WritersProduceParseableFiles) {
    run_small_pipeline();
    const std::string metrics_path =
        testing::TempDir() + "wimi_obs_metrics.json";
    const std::string trace_path =
        testing::TempDir() + "wimi_obs_trace.json";
    write_metrics_json(metrics_path);
    write_chrome_trace(trace_path);

    const json::Value metrics = json::parse(read_file(metrics_path));
    EXPECT_EQ(metrics.find("schema")->string, "wimi.metrics.v1");
    const json::Value trace = json::parse(read_file(trace_path));
    EXPECT_TRUE(trace.find("traceEvents")->is_array());

    std::remove(metrics_path.c_str());
    std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace wimi::obs
