// wimi_perfbench — one workload of the WiMi benchmark per invocation.
//
//   wimi_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --root <checkout> [--commit <id>] [--source-digest <d>]
//
// Workloads: batch_identify, stream_tail. Prints a host fingerprint, one
// line per metric (metric <workload> <name> <unit> <value>), and as its
// last line one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
// Exits 1 on any correctness miss and 2 on a usage or set-up error, or
// when a metric of the JSON was not measured (no JSON then).
//
// Each run works in a private directory <root>/.bench_runs/<run>/ (model,
// socket, WCSI files, daemon log), removed when the run ends; the spans
// of a traced run are kept under <root>/.bench_runs/traces/.
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/obs.hpp"
#include "simd/simd.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"cpu_us_per_op", "us"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"serve.queue_wait_p50_us", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.batch_wall_p50_us", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.transport_p50_us", "us"},
    {"serve.sent", "count"},
    {"serve.ok", "count"},
    {"serve.shed", "count"},
    {"serve.failed", "count"},
    {"serve.daemon_requests", "count"},
    {"serve.daemon_batches", "count"},
    {"serve.wire.decode_request_us", "us"},
    {"serve.wire.decode_request_allocs", "count"},
    {"serve.predict_us", "us"},
    {"serve.predict_allocs", "count"},
    {"csi.read_trace_us", "us"},
    {"csi.read_trace_allocs", "count"},
    {"csi.soa_us", "us"},
    {"core.features_us", "us"},
    {"core.features_allocs", "count"},
    {"core.window_features_us", "us"},
    {"core.window_features_allocs", "count"},
    {"dsp.wavelet_denoise_20_us", "us"},
    {"dsp.wavelet_denoise_64_us", "us"},
    {"ml.predict_features_us", "us"},
    {"ml.psi_gate_us", "us"},
    {"ml.drift_gated_windows", "count"},
    {"stream.tailer_frame_us", "us"},
    {"stream.push_us", "us"},
    {"stream.window_p50_us", "us"},
    {"stream.window_p99_us", "us"},
    {"stream.windows", "count"},
    {"stream.changes", "count"},
    {"exec.scaling", "ratio"},
    {"gen.lateness_p99_ms", "ms"},
    {"gen.backlog_max", "count"},
    {"trace.residual_share", "share"},
    {"trace.overhead_share", "share"},
};

int usage(const char* why) {
    std::fprintf(stderr,
                 "wimi_perfbench: %s\nusage: wimi_perfbench --workload "
                 "batch_identify|stream_tail "
                 "--seed N --seconds S --trace 0|1 --root DIR [--commit ID] "
                 "[--source-digest D]\n",
                 why);
    return 2;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

void print_fingerprint(const Args& args, Report& report) {
    report.info("host.nproc",
                std::to_string(std::thread::hardware_concurrency()));
    report.info("host.cpu_model", cpu_model());
    report.info("build.simd_isa", wimi::simd::effective_isa());
    report.info("build.type", PERFBENCH_BUILD_TYPE);
#if defined(WIMI_OBS_DISABLED)
    report.info("build.obs", "off");
#else
    report.info("build.obs", wimi::obs::enabled() ? "on" : "off (runtime)");
#endif
    report.info("run.seed", std::to_string(args.seed));
    report.info("run.seconds", std::to_string(args.seconds));
    report.info("run.trace", args.trace ? "1" : "0");
    report.info("source.commit", args.commit);
    report.info("source.digest", args.source_digest);
}

/// The run's private directory: created and entered on construction,
/// left and removed on destruction.
class RunDirectory {
public:
    explicit RunDirectory(const Args& args)
        : root_(args.root),
          path_(args.root / ".bench_runs" /
                (args.workload + "-s" + std::to_string(args.seed) + "-p" +
                 std::to_string(getpid()))) {
        std::filesystem::create_directories(path_);
        std::filesystem::current_path(path_);
    }
    ~RunDirectory() {
        std::error_code ignored;
        std::filesystem::current_path(root_, ignored);
        std::filesystem::remove_all(path_, ignored);
    }
    RunDirectory(const RunDirectory&) = delete;
    RunDirectory& operator=(const RunDirectory&) = delete;

private:
    std::filesystem::path root_;
    std::filesystem::path path_;
};

}  // namespace

int main(int argc, char** argv) {
    Args args;
    bool have_seed = false;
    bool have_trace = false;
    bool have_seconds = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc) {
            return usage("a flag is missing its value");
        }
        const std::string value = argv[i + 1];
        try {
            if (flag == "--workload") {
                args.workload = value;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
                have_seed = true;
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
                have_seconds = args.seconds > 0.0;
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") {
                    return usage("--trace must be 0 or 1");
                }
                args.trace = value == "1";
                have_trace = true;
            } else if (flag == "--root") {
                args.root = std::filesystem::weakly_canonical(value);
            } else if (flag == "--commit") {
                args.commit = value;
            } else if (flag == "--source-digest") {
                args.source_digest = value;
            } else {
                return usage("unknown flag");
            }
        } catch (const std::exception&) {
            return usage("bad flag value");
        }
    }
    if (args.workload != "batch_identify" && args.workload != "stream_tail") {
        return usage("unknown workload");
    }
    if (!have_seed || !have_trace || !have_seconds || args.root.empty()) {
        return usage("--seed, --seconds, --trace and --root are required");
    }
    args.bin_dir = std::filesystem::canonical("/proc/self/exe").parent_path();

    Report report(args.workload);
    print_fingerprint(args, report);
    try {
        const RunDirectory run_dir(args);
        if (args.trace) {
            run_traced_layers(args, report);
        } else if (args.workload == "batch_identify") {
            run_identify_workload(args, report);
        } else {
            run_stream_workload(args, report);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "wimi_perfbench: %s failed: %s\n",
                     args.workload.c_str(), e.what());
        return 2;
    }
    report.metric("attempted", "count",
                  static_cast<double>(report.attempted()));
    report.metric("failed", "count", static_cast<double>(report.failed()));
    if (!report.print_result(args.trace ? kPerLayer : kEndToEnd)) {
        std::fprintf(stderr, "wimi_perfbench: a metric is missing\n");
        return 2;
    }
    return report.correct() ? 0 : 1;
}
