// stream_tail: a long capture of distinct simulated frames — one liquid,
// then another poured in at a known frame — written as a WCSI v2 file
// during set-up, read back by stream::TraceTailer (idle timeout 0) and
// pushed through StreamingPipeline (window 64, hop 16, PSI gate on) as
// fast as it goes. The file is replayed from the start, with the
// pipeline reset, until the measuring time is up.
#include <bit>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "csi/trace_io.hpp"
#include "ml/drift.hpp"
#include "serve/inference.hpp"
#include "stream/pipeline.hpp"
#include "stream/tailer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace wimi;

constexpr std::size_t kFramesBefore = 1024;
constexpr std::size_t kFramesAfter = 1024;
constexpr const char* kTracePath = "stream.wcsi";
/// Every this many windows of the first pass is checked bit for bit
/// against batch extraction on the same subseries.
constexpr std::uint64_t kParityStride = 8;

stream::StreamConfig stream_config() {
    stream::StreamConfig config;
    config.window = 64;
    config.hop = 16;
    config.psi.threshold = 10.0;
    return config;
}

/// Capture sessions the search of choose_pour tries before it gives up.
constexpr std::uint64_t kMaxSessions = 16;

/// The capture session, the liquid poured second, and the labels the
/// model gives the windows before and after the pour.
struct Pour {
    std::uint64_t session = 0;
    rf::Liquid after = rf::Liquid::kPureWater;
    int before_label = -1;
    int after_label = -1;
};

struct StreamSetup {
    Fixture fixture;
    csi::CsiSeries baseline;
    csi::CsiSeries capture;  ///< the frames of the file, in order
    ml::PsiReference psi;
    Pour pour;
};

csi::CsiSeries frames_of(const csi::CsiSeries& capture, std::size_t first,
                         std::size_t count) {
    csi::CsiSeries out;
    out.frames.assign(
        capture.frames.begin() + static_cast<std::ptrdiff_t>(first),
        capture.frames.begin() + static_cast<std::ptrdiff_t>(first + count));
    return out;
}

/// The label every window of `capture` that lies wholly in
/// [first, first + count) gets, or -1 when they do not all agree.
int steady_label(const serve::InferenceEngine& engine,
                 const csi::CsiSeries& baseline, const csi::CsiSeries& capture,
                 std::size_t first, std::size_t count) {
    const stream::StreamConfig config = stream_config();
    int label = -1;
    for (std::size_t start = first; start + config.window <= first + count;
         start += config.hop) {
        const int window_label =
            engine.predict(baseline, frames_of(capture, start, config.window))
                .material_id;
        if (label != -1 && window_label != label) {
            return -1;
        }
        label = window_label;
    }
    return label;
}

/// Pure water for kFramesBefore frames, then `after` for kFramesAfter, in
/// capture session number `session` of the seed; `baseline` is the
/// session's empty beaker. The pure-water frames depend only on the
/// session, not on `after`.
void simulate_capture(const Args& args, const Fixture& fixture,
                      std::uint64_t session_index, rf::Liquid after,
                      StreamSetup& setup) {
    const SimulationScope simulating;
    const sim::Scenario scenario(fixture.scenario);
    csi::CaptureSimulator session = scenario.make_session(
        (args.seed ^ 0x57BEA4ULL) + session_index * 0x9E3779B97F4A7C15ULL);
    setup.baseline =
        session.capture(scenario.scene(nullptr), scenario.config().packets);
    setup.capture = session.capture(
        scenario.scene(&rf::material_for(rf::Liquid::kPureWater)),
        kFramesBefore);
    csi::CsiSeries poured = session.capture(
        scenario.scene(&rf::material_for(after)), kFramesAfter);
    const double offset = setup.capture.frames.back().timestamp_s +
                          (setup.capture.frames[1].timestamp_s -
                           setup.capture.frames[0].timestamp_s);
    for (csi::CsiFrame& frame : poured.frames) {
        frame.timestamp_s += offset;
        setup.capture.frames.push_back(std::move(frame));
    }
}

/// The session and the liquid poured second: the first session whose
/// pure-water windows all get one label, and in it the first liquid that
/// the model labels the same in every window after the pour, and
/// differently from before it. Then there is exactly one change to find.
/// In some sessions no liquid gives one clean change (the first sessions
/// of seeds 219 and 253), so the search moves on to the seed's next
/// session. How long the search takes depends on the seed, so it runs
/// once, outside the timed set-up. The choice goes on an info line.
Pour choose_pour(const Args& args, const Fixture& fixture, Report& report) {
    const serve::InferenceEngine engine(fixture.model);
    for (std::uint64_t session = 0; session < kMaxSessions; ++session) {
        for (const rf::Liquid after : rf::all_liquids()) {
            if (after == rf::Liquid::kPureWater) {
                continue;
            }
            StreamSetup candidate;
            simulate_capture(args, fixture, session, after, candidate);
            const Pour pour{
                session, after,
                steady_label(engine, candidate.baseline, candidate.capture, 0,
                             kFramesBefore),
                steady_label(engine, candidate.baseline, candidate.capture,
                             kFramesBefore, kFramesAfter)};
            if (pour.before_label == -1) {
                break;  // the same pure-water frames for every liquid
            }
            if (pour.after_label != -1 &&
                pour.before_label != pour.after_label) {
                report.info("stream.pour",
                            "session " + std::to_string(session) + " " +
                                std::string(rf::liquid_name(after)) +
                                " at frame " +
                                std::to_string(kFramesBefore));
                return pour;
            }
        }
    }
    fail("perfbench: no session of the seed gives one steady label before "
         "the pour and another after it");
}

/// The timed set-up: the PSI reference, the chosen capture and its file.
StreamSetup build_setup(const Args& args, Fixture fixture, const Pour& pour) {
    StreamSetup setup;
    setup.fixture = std::move(fixture);
    setup.psi = ml::make_psi_reference(setup.fixture.training);
    setup.pour = pour;
    simulate_capture(args, setup.fixture, pour.session, pour.after, setup);
    csi::write_trace_file(kTracePath, setup.capture);
    return setup;
}

struct PassResult {
    std::uint64_t frames = 0;
    double seconds = 0.0;
    std::vector<double> window_ms;  ///< push() calls that emitted a window
    std::vector<stream::WindowResult> sampled;  ///< kept for parity checks
};

/// One replay of the file. Traced, every frame is a root span with the
/// tailer read and the push (or emitting push) as children.
PassResult run_pass(stream::StreamingPipeline& pipeline, SpanRecorder& spans,
                    bool sample, const StreamSetup& setup, Report& report) {
    PassResult pass;
    pipeline.reset();
    stream::TailerConfig tail;
    tail.idle_timeout_ms = 0;
    const auto t0 = Clock::now();
    stream::TraceTailer tailer(kTracePath, tail);
    const stream::StreamConfig config = stream_config();
    // Windows [0, first_touching) hold only the first liquid; from
    // first_after on only the second. Straddling windows may pass through
    // a third label (a mix of both captures), so the oracle asks only that
    // nothing changes before the pour, that the stable label reaches the
    // second liquid's within ceil(vote_window / 2) + hold windows of the
    // first all-poured window, and that it stays there.
    const std::uint64_t first_touching =
        (kFramesBefore - config.window) / config.hop + 1;
    const std::uint64_t first_after =
        (kFramesBefore + config.hop - 1) / config.hop;
    const std::uint64_t deadline =
        first_after + (config.smoothing.vote_window + 1) / 2 +
        config.smoothing.hold;
    std::optional<std::uint64_t> early_change;
    std::optional<std::uint64_t> reached;
    int last_stable = -1;
    int stable_before = -1;
    for (;;) {
        SpanRecorder::Scope root(spans, "stream.frame");
        std::optional<csi::CsiFrame> frame;
        {
            SpanRecorder::Scope s(spans, "stream.tailer_frame");
            frame = tailer.next();
        }
        if (!frame) {
            break;
        }
        ++pass.frames;
        const auto start = Clock::now();
        std::optional<stream::WindowResult> result = pipeline.push(*frame);
        const auto end = Clock::now();
        spans.record(result ? "stream.window" : "stream.push", start, end,
                     root.id());
        if (!result) {
            continue;
        }
        pass.window_ms.push_back(
            std::chrono::duration<double, std::milli>(end - start).count());
        if (result->changed && result->window_index < first_touching &&
            !early_change) {
            early_change = result->window_index;
        }
        if (result->window_index + 1 == first_touching) {
            stable_before = result->stable_label;
        }
        if (result->stable_label == setup.pour.after_label && !reached) {
            reached = result->window_index;
        }
        last_stable = result->stable_label;
        if (sample && result->window_index % kParityStride == 0) {
            pass.sampled.push_back(std::move(*result));
        }
    }
    pass.seconds = seconds_between(t0, Clock::now());

    const bool found = stable_before == setup.pour.before_label &&
                       !early_change && reached && *reached <= deadline &&
                       last_stable == setup.pour.after_label;
    report.attempt(found);
    if (!found) {
        report.miss(
            "pour at frame " + std::to_string(kFramesBefore) +
            ": stable label " + std::to_string(stable_before) + " (expected " +
            std::to_string(setup.pour.before_label) + ") -> " +
            std::to_string(setup.pour.after_label) + " expected by window " +
            std::to_string(deadline) + "; reached at " +
            (reached ? std::to_string(*reached) : std::string("never")) +
            ", early change at " +
            (early_change ? std::to_string(*early_change)
                          : std::string("none")) +
            ", final " + std::to_string(last_stable));
    }
    return pass;
}

/// The pipeline over one set-up, and the passes that replay its file.
class StreamBench {
public:
    explicit StreamBench(StreamSetup setup)
        : setup_(std::move(setup)),
          engine_(setup_.fixture.model),
          pipeline_(stream_config(),
                    core::WindowFeatureExtractor(
                        setup_.baseline, engine_.model().pairs,
                        engine_.model().subcarriers, engine_.model().feature),
                    [this](std::span<const double> features) {
                        serve::Prediction p =
                            engine_.predict_features(features);
                        return std::make_pair(p.material_id,
                                              std::move(p.material_name));
                    },
                    setup_.psi) {}
    StreamBench(const StreamBench&) = delete;
    StreamBench& operator=(const StreamBench&) = delete;

    /// The warm-up pass, whose sampled windows must be bit-equal to batch
    /// extraction on the same subseries.
    void warm_up(Report& report) {
        SpanRecorder off(false);
        const PassResult first = run_pass(pipeline_, off, true, setup_, report);
        for (const stream::WindowResult& window : first.sampled) {
            const std::vector<double> batch = engine_.features(
                setup_.baseline, frames_of(setup_.capture, window.first_frame,
                                           window.frame_count));
            bool equal = batch.size() == window.features.size();
            for (std::size_t i = 0; equal && i < batch.size(); ++i) {
                equal = std::bit_cast<std::uint64_t>(batch[i]) ==
                        std::bit_cast<std::uint64_t>(window.features[i]);
            }
            report.attempt(equal);
            if (!equal) {
                report.miss("window " + std::to_string(window.window_index) +
                            " features differ from batch extraction");
            }
        }
    }

    /// Replays the file until `seconds` of replay time pass; returns the
    /// frames and the seconds.
    std::pair<std::uint64_t, double> measure(double seconds,
                                             SpanRecorder& spans,
                                             std::vector<double>* window_ms,
                                             Report& report) {
        std::uint64_t frames = 0;
        double busy = 0.0;
        do {
            PassResult pass = run_pass(pipeline_, spans, false, setup_, report);
            frames += pass.frames;
            busy += pass.seconds;
            if (window_ms != nullptr) {
                window_ms->insert(window_ms->end(), pass.window_ms.begin(),
                                  pass.window_ms.end());
            }
        } while (busy < seconds);
        return {frames, busy};
    }

    const stream::StreamingPipeline& pipeline() const { return pipeline_; }

private:
    StreamSetup setup_;
    serve::InferenceEngine engine_;
    stream::StreamingPipeline pipeline_;
};

}  // namespace

void run_stream_workload(const Args& args, Report& report) {
    const Pour pour = choose_pour(args, train_fixture(args.seed), report);
    StreamSetup setup;
    const double setup_s = median_setup_seconds(kSetupRepeats, [&] {
        setup = StreamSetup();  // the previous repeat's memory goes first
        setup = build_setup(args, train_fixture(args.seed), pour);
    });
    StreamBench bench(std::move(setup));
    bench.warm_up(report);
    reset_peak_rss(report);

    report.metric("setup_s", "s", setup_s);
    SpanRecorder off(false);
    SegmentMedians segments;
    std::size_t samples = 0;
    for (int k = 0; k < kSegments; ++k) {
        std::vector<double> window_ms;
        const double cpu0 = self_cpu_seconds();
        const auto [frames, busy] =
            bench.measure(args.seconds / kSegments, off, &window_ms, report);
        const double cpu = self_cpu_seconds() - cpu0;
        const double rate = static_cast<double>(frames) / busy;
        segments.add("frames_per_s", rate);
        segments.add("throughput_per_s", rate);
        segments.add("latency_p50_ms", quantile(window_ms, 0.5));
        segments.add("latency_p99_ms", quantile(window_ms, 0.99));
        segments.add("cpu_us_per_op", cpu * 1e6 / static_cast<double>(frames));
        samples += window_ms.size();
    }
    segments.report(report, "frames_per_s", "1/s");
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

void run_stream_layers(const Args& args, const Fixture& fixture,
                       double seconds, bool root_spans, Report& report) {
    StreamBench bench(
        build_setup(args, fixture, choose_pour(args, fixture, report)));
    bench.warm_up(report);
    SpanRecorder off(false);
    const auto [plain_frames, plain_s] =
        bench.measure(seconds * 0.5, off, nullptr, report);
    SpanRecorder spans(true);
    const auto [traced_frames, traced_s] =
        bench.measure(seconds * 0.5, spans, nullptr, report);
    const auto totals = spans.totals();
    const auto durations = [&](const char* name) {
        const auto it = totals.find(name);
        ensure(it != totals.end(),
               std::string("perfbench: no ") + name + " span recorded");
        return it->second.durations_us;
    };
    report.metric("stream.tailer_frame_us", "us",
                  median(durations("stream.tailer_frame")));
    report.metric("stream.push_us", "us", median(durations("stream.push")));
    report.metric("stream.window_p50_us", "us",
                  quantile(durations("stream.window"), 0.5));
    report.metric("stream.window_p99_us", "us",
                  quantile(durations("stream.window"), 0.99));
    const stream::StreamingPipeline& pipeline = bench.pipeline();
    report.metric("stream.windows", "count",
                  static_cast<double>(pipeline.windows_emitted()));
    report.metric("stream.changes", "count",
                  static_cast<double>(pipeline.changes()));
    report.metric("ml.drift_gated_windows", "count",
                  static_cast<double>(pipeline.drift_gated_windows()));
    if (root_spans) {
        report.metric("trace.overhead_share", "share",
                      (traced_s / static_cast<double>(traced_frames)) /
                              (plain_s / static_cast<double>(plain_frames)) -
                          1.0);
        finish_trace(args, spans, report);
    }
}

}  // namespace perfbench
