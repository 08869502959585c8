// The traced run: layer probes, the other layers' measurements, and the
// trace output.
//
// A probe times single calls into one layer's public function on the
// calling thread, with the inputs prepared outside the timed part, and
// counts the heap allocations the call makes. Times are medians over
// the calls; allocation counts repeat exactly from call to call.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "core/material_feature.hpp"
#include "core/streaming_feature.hpp"
#include "csi/soa.hpp"
#include "csi/trace_io.hpp"
#include "dsp/wavelet_denoise.hpp"
#include "ml/drift.hpp"
#include "serve/inference.hpp"
#include "serve/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace wimi;

constexpr std::size_t kProbeCalls = 200;
constexpr std::size_t kProbeWarmCalls = 5;
constexpr std::size_t kProbePairs = 16;

/// Runs prepare(i) untimed, then run(state) timed, kProbeCalls times
/// after a few warm calls; records <name>_us and, with `count_allocs`,
/// <name>_allocs, the median allocation count of one call.
template <typename Prepare, typename Run>
void probe(Report& report, const std::string& name, bool count_allocs,
           Prepare&& prepare, Run&& run) {
    std::vector<double> us;
    std::vector<double> allocs;
    for (std::size_t i = 0; i < kProbeWarmCalls + kProbeCalls; ++i) {
        auto state = prepare(i);
        const std::uint64_t a0 = thread_allocations();
        const auto t0 = Clock::now();
        auto result = run(state);
        const auto t1 = Clock::now();
        const std::uint64_t a1 = thread_allocations();
        if (i >= kProbeWarmCalls) {
            us.push_back(us_between(t0, t1));
            allocs.push_back(static_cast<double>(a1 - a0));
        }
        (void)result;
    }
    report.metric(name + "_us", "us", median(us));
    if (count_allocs) {
        report.metric(name + "_allocs", "count", median(allocs));
    }
}

}  // namespace

void run_layer_probes(const Args& args, const Fixture& fixture,
                      Report& report) {
    const sim::Scenario scenario(fixture.scenario);
    const serve::InferenceEngine engine(fixture.model);
    const serve::TrainedModel& model = engine.model();
    const std::vector<Pair> pairs =
        make_pairs(scenario, args.seed ^ 0x9B0BEULL, kProbePairs);
    std::vector<std::string> wcsi;
    std::vector<std::vector<std::uint8_t>> records;
    std::vector<std::vector<double>> features;
    for (const Pair& pair : pairs) {
        wcsi.push_back(to_wcsi(pair.target));
        serve::wire::Request request;
        request.type = serve::wire::MessageType::kPredictSeries;
        request.request_id = records.size() + 1;
        request.baseline = pair.baseline;
        request.target = pair.target;
        records.push_back(serve::wire::encode_request(request));
        features.push_back(engine.features(pair.baseline, pair.target));
    }
    const auto pick = [](std::size_t i) { return i % kProbePairs; };

    probe(report, "serve.wire.decode_request", true, pick,
          [&](std::size_t i) {
              return serve::wire::decode_request(records[i]);
          });
    probe(report, "serve.predict", true, pick, [&](std::size_t i) {
        return engine.predict(pairs[i].baseline, pairs[i].target);
    });
    probe(
        report, "csi.read_trace", true,
        [&](std::size_t i) {
            return std::make_unique<std::istringstream>(wcsi[pick(i)],
                                                        std::ios::binary);
        },
        [](std::unique_ptr<std::istringstream>& in) {
            return csi::read_trace(*in);
        });
    probe(report, "csi.soa", false, pick, [&](std::size_t i) {
        return csi::CsiSoa(pairs[i].target);
    });
    // Features from the two captures, as InferenceEngine::features runs
    // them (SoA layout included).
    probe(report, "core.features", true, pick, [&](std::size_t i) {
        return engine.features(pairs[i].baseline, pairs[i].target);
    });
    probe(report, "ml.predict_features", false, pick, [&](std::size_t i) {
        return engine.predict_features(features[i]);
    });

    // One 64-frame window of a continuing capture, as the stream path
    // sees it.
    csi::CaptureSimulator session = scenario.make_session(args.seed ^ 0x64ULL);
    csi::CsiSeries baseline;
    csi::CsiSeries window;
    {
        const SimulationScope simulating;
        baseline = session.capture(scenario.scene(nullptr),
                                   scenario.config().packets);
        window = session.capture(
            scenario.scene(&rf::material_for(rf::Liquid::kMilk)), 64);
    }
    const core::WindowFeatureExtractor extractor(
        baseline, model.pairs, model.subcarriers, model.feature);
    probe(report, "core.window_features", true, pick,
          [&](std::size_t) { return extractor.extract(window); });

    const std::vector<double> short_series =
        pairs.front().target.amplitude_series(0, model.subcarriers.front());
    const std::vector<double> long_series =
        window.amplitude_series(0, model.subcarriers.front());
    probe(report, "dsp.wavelet_denoise_20", false, pick, [&](std::size_t) {
        return dsp::wavelet_correlation_denoise(short_series);
    });
    probe(report, "dsp.wavelet_denoise_64", false, pick, [&](std::size_t) {
        return dsp::wavelet_correlation_denoise(long_series);
    });

    // A full pool, as in a running stream.
    ml::OnlinePsiGate gate(ml::make_psi_reference(fixture.training));
    for (std::size_t i = 0; i < gate.config().capacity; ++i) {
        gate.add(features[pick(i)]);
    }
    probe(report, "ml.psi_gate", false, pick, [&](std::size_t i) {
        gate.add(features[i]);
        return gate.psi();
    });
}

void run_traced_layers(const Args& args, Report& report) {
    const Fixture fixture = train_fixture(args.seed);
    const bool stream = args.workload == "stream_tail";
    run_identify_layers(args, fixture, args.seconds * 0.3, !stream, report);
    run_stream_layers(args, fixture, args.seconds * 0.3, stream, report);
    run_layer_probes(args, fixture, report);
    run_daemon_layers(args, fixture, args.seconds * 0.3, report);
}

void finish_trace(const Args& args, const SpanRecorder& spans,
                  Report& report) {
    report.metric("trace.residual_share", "share", spans.residual_share());
    for (const auto& [name, totals] : spans.totals()) {
        char line[200];
        std::snprintf(line, sizeof(line),
                      "%s count %llu total_us %.1f self_us %.1f", name.c_str(),
                      static_cast<unsigned long long>(totals.count),
                      totals.total_us, totals.self_us);
        report.info("span", line);
    }
    const std::filesystem::path dir = args.root / ".bench_runs" / "traces";
    std::filesystem::create_directories(dir);
    const std::filesystem::path path =
        dir / (args.workload + "-seed" + std::to_string(args.seed) +
               ".trace.json");
    spans.write_chrome_trace(path);
    report.info("trace_file", path.string());
}

}  // namespace perfbench
