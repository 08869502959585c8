// batch_identify: closed-loop offline scoring of a corpus of
// (baseline, target) pairs held as in-memory WCSI bytes. Every pair has
// its own baseline, as in the paper's procedure (record empty, pour,
// record again), so no baseline is ever reused.
//
// One job decodes the whole corpus (csi::read_trace twice per pair) and
// scores it with InferenceEngine::predict_batch. The job runs at the full
// exec width, and again on one thread pair by pair, which is the
// single-thread baseline and gives the per-pair latency.
//
// throughput_per_s is the one-thread rate. The full-width rate follows
// how many CPUs the rest of the host leaves free: on a shared 4-core host
// it halved for minutes at a time while the one-thread rate held, so it
// is printed (pairs_per_s) and not gated.
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/material_feature.hpp"
#include "csi/soa.hpp"
#include "csi/trace_io.hpp"
#include "exec/parallel.hpp"
#include "serve/inference.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace wimi;

constexpr std::size_t kCorpusPairs = 256;

struct EncodedPair {
    std::string baseline;
    std::string target;
    int label = -1;  ///< in-process answer on the original series
};

struct IdentifySetup {
    Fixture fixture;
    std::vector<EncodedPair> corpus;
};

IdentifySetup build_setup(const Args& args, Fixture fixture) {
    IdentifySetup setup;
    setup.fixture = std::move(fixture);
    const sim::Scenario scenario(setup.fixture.scenario);
    const serve::InferenceEngine engine(setup.fixture.model);
    for (const Pair& pair : make_pairs(scenario, args.seed, kCorpusPairs)) {
        setup.corpus.push_back(
            {to_wcsi(pair.baseline), to_wcsi(pair.target),
             engine.predict(pair.baseline, pair.target).material_id});
    }
    return setup;
}

csi::CsiSeries decode(const std::string& bytes) {
    std::istringstream in(bytes, std::ios::binary);
    return csi::read_trace(in);
}

struct Decoded {
    csi::CsiSeries baseline;
    csi::CsiSeries target;
};

/// One job at the full exec width; returns the labels in corpus order.
std::vector<int> run_parallel_job(const serve::InferenceEngine& engine,
                                  const std::vector<EncodedPair>& corpus) {
    const std::vector<Decoded> decoded = exec::parallel_map<Decoded>(
        corpus.size(), [&](std::size_t i) {
            return Decoded{decode(corpus[i].baseline),
                           decode(corpus[i].target)};
        });
    std::vector<serve::Observation> batch;
    batch.reserve(decoded.size());
    for (const Decoded& d : decoded) {
        batch.push_back({&d.baseline, &d.target});
    }
    std::vector<int> labels;
    for (const serve::Prediction& p : engine.predict_batch(batch)) {
        labels.push_back(p.material_id);
    }
    return labels;
}

/// One pair on the calling thread. Without `spans` it runs as
/// predict_batch's serial path; with them the same work goes through the
/// layers' public functions one at a time, each inside its own span (a
/// disabled recorder gives the same calls without spans).
int identify_one(const serve::InferenceEngine& engine,
                 const EncodedPair& pair, SpanRecorder* spans_or_null) {
    if (spans_or_null == nullptr) {
        const csi::CsiSeries baseline = decode(pair.baseline);
        const csi::CsiSeries target = decode(pair.target);
        const serve::Observation obs{&baseline, &target};
        return engine.predict_batch({&obs, 1}, {.threads = 1})
            .front()
            .material_id;
    }
    SpanRecorder& spans = *spans_or_null;
    const serve::TrainedModel& model = engine.model();
    SpanRecorder::Scope root(spans, "identify.pair");
    csi::CsiSeries baseline;
    csi::CsiSeries target;
    {
        SpanRecorder::Scope s(spans, "csi.read_trace");
        baseline = decode(pair.baseline);
    }
    {
        SpanRecorder::Scope s(spans, "csi.read_trace");
        target = decode(pair.target);
    }
    std::vector<double> features;
    {
        SpanRecorder::Scope s(spans, "core.features");
        std::optional<csi::CsiSoa> baseline_soa;
        std::optional<csi::CsiSoa> target_soa;
        {
            SpanRecorder::Scope soa(spans, "csi.soa");
            baseline_soa.emplace(baseline);
        }
        {
            SpanRecorder::Scope soa(spans, "csi.soa");
            target_soa.emplace(target);
        }
        features = core::extract_feature_vector(*baseline_soa, *target_soa,
                                                model.pairs,
                                                model.subcarriers,
                                                model.feature);
    }
    SpanRecorder::Scope s(spans, "ml.predict_features");
    return engine.predict_features(features).material_id;
}

/// Runs the corpus pair by pair on this thread until `seconds` pass
/// (at least one whole corpus). Returns pairs per second.
double run_serial(const serve::InferenceEngine& engine,
                  const std::vector<EncodedPair>& corpus, double seconds,
                  SpanRecorder* spans, std::vector<double>* latency_ms,
                  Report& report) {
    const auto t0 = Clock::now();
    std::size_t done = 0;
    while (done < corpus.size() || seconds_between(t0, Clock::now()) < seconds) {
        const EncodedPair& pair = corpus[done % corpus.size()];
        const auto start = Clock::now();
        const int label = identify_one(engine, pair, spans);
        if (latency_ms != nullptr) {
            latency_ms->push_back(
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          start)
                    .count());
        }
        report.attempt(label == pair.label);
        if (label != pair.label) {
            report.miss("1-thread label differs from the set-up label");
        }
        ++done;
    }
    return static_cast<double>(done) / seconds_between(t0, Clock::now());
}

/// Runs whole-corpus jobs at the full exec width until `seconds` pass.
/// Returns pairs per second; `cpu_us_per_pair` gets the process CPU.
double run_parallel(const serve::InferenceEngine& engine,
                    const std::vector<EncodedPair>& corpus, double seconds,
                    double* cpu_us_per_pair, Report& report) {
    const auto t0 = Clock::now();
    const double cpu0 = self_cpu_seconds();
    std::size_t done = 0;
    do {
        const std::vector<int> labels = run_parallel_job(engine, corpus);
        for (std::size_t i = 0; i < corpus.size(); ++i) {
            report.attempt(labels[i] == corpus[i].label);
            if (labels[i] != corpus[i].label) {
                report.miss("full-width label differs from the 1-thread "
                            "and set-up label");
            }
        }
        done += corpus.size();
    } while (seconds_between(t0, Clock::now()) < seconds);
    const double wall = seconds_between(t0, Clock::now());
    if (cpu_us_per_pair != nullptr) {
        *cpu_us_per_pair =
            (self_cpu_seconds() - cpu0) * 1e6 / static_cast<double>(done);
    }
    return static_cast<double>(done) / wall;
}

}  // namespace

void run_identify_workload(const Args& args, Report& report) {
    IdentifySetup setup;
    const double setup_s = median_setup_seconds(kSetupRepeats, [&] {
        setup = IdentifySetup();  // the previous repeat's memory goes first
        setup = build_setup(args, train_fixture(args.seed));
    });
    const serve::InferenceEngine engine(setup.fixture.model);
    report.info("exec_threads", std::to_string(exec::thread_count()));
    exec::warm_pool();

    // Warm-up: one serial corpus and one parallel job.
    run_serial(engine, setup.corpus, 0.0, nullptr, nullptr, report);
    run_parallel(engine, setup.corpus, 0.0, nullptr, report);
    reset_peak_rss(report);

    report.metric("setup_s", "s", setup_s);
    // Full-width and one-thread segments alternate, so a slow spell of the
    // host lands on both rather than on one.
    SegmentMedians segments;
    std::size_t samples = 0;
    for (int k = 0; k < kSegments; ++k) {
        double cpu_us = 0.0;
        const double full =
            run_parallel(engine, setup.corpus, args.seconds * 0.6 / kSegments,
                         &cpu_us, report);
        std::vector<double> latency_ms;
        const double single =
            run_serial(engine, setup.corpus, args.seconds * 0.4 / kSegments,
                       nullptr, &latency_ms, report);
        segments.add("pairs_per_s", full);
        segments.add("pairs_per_s_1thread", single);
        segments.add("throughput_per_s", single);
        segments.add("cpu_us_per_op", cpu_us);
        segments.add("latency_p50_ms", quantile(latency_ms, 0.5));
        segments.add("latency_p99_ms", quantile(latency_ms, 0.99));
        samples += latency_ms.size();
    }
    segments.report(report, "pairs_per_s", "1/s");
    segments.report(report, "pairs_per_s_1thread", "1/s");
    segments.report(report, "throughput_per_s", "1/s");
    report.metric("latency_samples", "count", static_cast<double>(samples));
    report.metric("latency_tail_quantile", "share",
                  supported_tail(samples / kSegments));
    segments.report(report, "latency_p50_ms", "ms");
    segments.report(report, "latency_p99_ms", "ms");
    segments.report(report, "cpu_us_per_op", "us");
    report.metric("peak_rss_mb", "MB", peak_rss_mb());
    report.metric("error_rate", "share",
                  static_cast<double>(report.failed()) /
                      static_cast<double>(report.attempted()));
}

void run_identify_layers(const Args& args, const Fixture& fixture,
                         double seconds, bool root_spans, Report& report) {
    const IdentifySetup setup = build_setup(args, fixture);
    const serve::InferenceEngine engine(setup.fixture.model);
    exec::warm_pool();
    run_parallel(engine, setup.corpus, 0.0, nullptr, report);
    const double full = run_parallel(engine, setup.corpus, seconds * 0.25,
                                     nullptr, report);
    const double single = run_serial(engine, setup.corpus, seconds * 0.25,
                                     nullptr, nullptr, report);
    report.metric("exec.scaling", "ratio", full / single);
    if (!root_spans) {
        return;
    }
    SpanRecorder off(false);
    const double plain = run_serial(engine, setup.corpus, seconds * 0.25,
                                    &off, nullptr, report);
    SpanRecorder spans(true);
    const double traced = run_serial(engine, setup.corpus, seconds * 0.25,
                                     &spans, nullptr, report);
    report.metric("trace.overhead_share", "share", plain / traced - 1.0);
    finish_trace(args, spans, report);
}

}  // namespace perfbench
