// wimi_serve — the long-running inference daemon and its control CLI.
//
//   wimi_serve start <model.wmdl> --socket <path> [--max-queue N]
//              [--max-batch N] [--threads T] [--log-out file.jsonl]
//              [--telemetry-out file.jsonl] [--telemetry-interval-ms N]
//              [--run-out ledger.jsonl] [--trace-out trace.json]
//              [--flight-capacity N] [--flight-snapshot file.jsonl]
//       Loads the model, binds the Unix-domain socket, and serves until
//       a client sends a shutdown request (or SIGINT/SIGTERM). Every
//       request flows through the serve.daemon.* metrics; with
//       --telemetry-out a periodic wimi.metrics.v1 exporter appends
//       snapshots there and with --log-out the structured log lands in
//       a file — both readable by `wimi_obs summarize`. --trace-out
//       writes the daemon-side Chrome trace at exit (request/engine
//       spans parent under the trace ids traced clients send on the
//       wire). --flight-capacity sizes the flight-recorder ring (0
//       disables it); --flight-snapshot auto-dumps the ring there on
//       overload/error bursts.
//
//   wimi_serve ping --socket <path>
//       Liveness probe; prints the serving model digest.
//
//   wimi_serve predict --socket <path> [--env hall|lab|library]
//              [--seed S] [--count K] [--trace-out trace.json]
//       Simulates K measurement captures (cycling the standard liquid
//       set) and classifies each over the socket — the quickstart
//       client for a daemon serving a `wimi_model train` artifact.
//       With --trace-out each predict runs inside a client-side span
//       whose trace id crosses the socket; merge the resulting file
//       with the daemon's --trace-out via `wimi_obs trace-check a b
//       --require-shared-trace`.
//
//   wimi_serve swap <model.wmdl> --socket <path>
//       Hot-swaps the serving model; in-flight batches finish on the
//       old one.
//
//   wimi_serve stats --socket <path>
//       Prints the daemon's wimi.stats.v1 document: uptime, serving
//       digest, DaemonStats counters, embedded wimi.metrics.v1.
//
//   wimi_serve health --socket <path>
//       Prints the daemon's wimi.health.v1 readiness/liveness document;
//       exit 0 only when ready.
//
//   wimi_serve dump-flight --socket <path> [--out flight.jsonl]
//       Fetches the daemon's flight-recorder ring as wimi.flight.v1
//       JSONL (stdout or --out); pretty-print with `wimi_obs flight`.
//
//   wimi_serve stop --socket <path>
//       Asks the daemon to drain and exit.
#include <chrono>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <fstream>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "obs/exporter.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "obs/run_context.hpp"
#include "rf/environment.hpp"
#include "rf/material.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace wimi;

struct Options {
    std::string socket_path;
    std::size_t max_queue = 128;
    std::size_t max_batch = 32;
    std::size_t threads = 0;
    std::string log_out;
    std::string telemetry_out;
    std::uint64_t telemetry_interval_ms = 1000;
    std::string run_out;
    std::string trace_out;
    std::string flight_snapshot;
    std::size_t flight_capacity = 1024;
    std::string out;
    std::string env = "lab";
    std::uint64_t seed = 7;
    std::size_t count = 12;
};

Options parse_options(int argc, char** argv, int first_flag) {
    Options options;
    if ((argc - first_flag) % 2 != 0) {
        fail("a flag is missing its value");
    }
    for (int i = first_flag; i + 1 < argc; i += 2) {
        const std::string_view flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--socket") {
            options.socket_path = value;
        } else if (flag == "--max-queue") {
            options.max_queue = parse_uint_flag(flag, value, 1);
        } else if (flag == "--max-batch") {
            options.max_batch = parse_uint_flag(flag, value, 1);
        } else if (flag == "--threads") {
            options.threads = parse_uint_flag(flag, value);
        } else if (flag == "--log-out") {
            options.log_out = value;
        } else if (flag == "--telemetry-out") {
            options.telemetry_out = value;
        } else if (flag == "--telemetry-interval-ms") {
            options.telemetry_interval_ms = parse_uint_flag(flag, value, 1);
        } else if (flag == "--run-out") {
            options.run_out = value;
        } else if (flag == "--trace-out") {
            options.trace_out = value;
        } else if (flag == "--flight-snapshot") {
            options.flight_snapshot = value;
        } else if (flag == "--flight-capacity") {
            options.flight_capacity = parse_uint_flag(flag, value);
        } else if (flag == "--out") {
            options.out = value;
        } else if (flag == "--env") {
            options.env = value;
        } else if (flag == "--seed") {
            options.seed = parse_uint_flag(flag, value);
        } else if (flag == "--count") {
            options.count = parse_uint_flag(flag, value, 1);
        } else {
            fail("unknown flag " + std::string(flag));
        }
    }
    ensure(!options.socket_path.empty(), "--socket is required");
    return options;
}

// SIGINT/SIGTERM funnel into the same drain path as a client shutdown
// request: the handler only sets a flag (the one async-signal-safe
// action); main polls it next to shutdown_requested(). A second signal
// gets the default disposition and kills outright.
volatile std::sig_atomic_t g_signal = 0;

void handle_signal(int) {
    g_signal = 1;
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
}

int cmd_start(const std::string& model_path, const Options& options) {
    obs::set_enabled(true);
    if (!options.log_out.empty()) {
        obs::Logger::instance().set_path(options.log_out);
    }
    obs::RunContext run("wimi_serve.start");
    run.set_seed(options.seed);
    run.set_threads(options.threads);

    serve::DaemonOptions daemon_options;
    daemon_options.socket_path = options.socket_path;
    daemon_options.model_path = model_path;
    daemon_options.max_queue = options.max_queue;
    daemon_options.max_batch = options.max_batch;
    daemon_options.batch_threads = options.threads;
    daemon_options.flight.capacity = options.flight_capacity;
    daemon_options.flight.snapshot_path = options.flight_snapshot;
    serve::Daemon daemon(daemon_options);

    std::unique_ptr<obs::TelemetryExporter> exporter;
    if (!options.telemetry_out.empty()) {
        obs::TelemetryExporterOptions exporter_options;
        exporter_options.path = options.telemetry_out;
        exporter_options.interval =
            std::chrono::milliseconds(options.telemetry_interval_ms);
        exporter = std::make_unique<obs::TelemetryExporter>(
            std::move(exporter_options));
        exporter->start();
    }

    daemon.start();
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::cout << "wimi_serve: serving " << model_path << " (digest "
              << daemon.model_digest() << ") on " << options.socket_path
              << "\n"
              << "wimi_serve: stop with `wimi_serve stop --socket "
              << options.socket_path << "`\n";
    while (!daemon.shutdown_requested() && g_signal == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    daemon.stop();

    const serve::DaemonStats stats = daemon.stats();
    if (exporter != nullptr) {
        exporter->stop();
    }
    run.note("model", model_path);
    run.note("model_digest", daemon.model_digest());
    run.note("requests", static_cast<double>(stats.requests));
    run.note("batches", static_cast<double>(stats.batches));
    run.append_to_default_ledger(options.run_out);
    if (!options.trace_out.empty()) {
        obs::write_chrome_trace(options.trace_out);
    }
    std::cout << "wimi_serve: drained and stopped (" << stats.requests
              << " requests, " << stats.batches << " batches, max batch "
              << stats.max_batch_size << ", " << stats.rejected_overload
              << " overload rejections, " << stats.swaps << " swaps)\n";
    return 0;
}

int cmd_ping(const Options& options) {
    serve::ServeClient client(options.socket_path);
    const serve::ClientResult result = client.ping();
    if (!result.ok()) {
        std::cout << "ping: " << serve::wire::status_name(result.status)
                  << " (" << result.message << ")\n";
        return 1;
    }
    std::cout << "ping: ok (serving digest " << result.model_digest
              << ")\n";
    return 0;
}

int cmd_predict(const Options& options) {
    // --trace-out turns on client-side tracing: each predict runs under
    // a span, so the ServeClient stamps its trace id on the wire and the
    // daemon-side spans for these requests share it.
    if (!options.trace_out.empty()) {
        obs::set_enabled(true);
    }
    sim::ScenarioConfig scenario_config;
    scenario_config.environment = rf::parse_environment(options.env);
    const sim::Scenario scenario(scenario_config);
    const std::span<const rf::Liquid> liquids = rf::all_liquids();

    serve::ServeClient client(options.socket_path);
    TextTable table({"#", "poured", "predicted", "status", "batch"});
    std::size_t ok = 0;
    std::size_t agree = 0;
    for (std::size_t i = 0; i < options.count; ++i) {
        const rf::Liquid liquid = liquids[i % liquids.size()];
        const sim::MeasurementPair measurement =
            scenario.capture_measurement(liquid, options.seed + i);
        serve::ClientResult result;
        {
            WIMI_TRACE_SPAN("serve.cli.predict");
            result = client.predict_series(measurement.baseline,
                                           measurement.target);
        }
        std::string predicted = "-";
        if (result.ok()) {
            ++ok;
            predicted = result.material_name;
            if (predicted == rf::liquid_name(liquid)) {
                ++agree;
            }
        }
        table.add_row({std::to_string(i),
                       std::string(rf::liquid_name(liquid)), predicted,
                       std::string(serve::wire::status_name(result.status)),
                       std::to_string(result.batch_size)});
    }
    table.print(std::cout);
    std::cout << ok << "/" << options.count << " answered, " << agree
              << " matched the poured liquid\n";
    if (!options.trace_out.empty()) {
        obs::write_chrome_trace(options.trace_out);
    }
    return ok == options.count ? 0 : 1;
}

int cmd_swap(const std::string& model_path, const Options& options) {
    serve::ServeClient client(options.socket_path);
    const serve::ClientResult result = client.swap_model(model_path);
    if (!result.ok()) {
        std::cout << "swap: " << serve::wire::status_name(result.status)
                  << " (" << result.message << ")\n";
        return 1;
    }
    std::cout << "swap: ok (now serving digest " << result.model_digest
              << ")\n";
    return 0;
}

int cmd_stats(const Options& options) {
    serve::ServeClient client(options.socket_path);
    const serve::ClientResult result = client.stats();
    if (!result.ok()) {
        std::cout << "stats: " << serve::wire::status_name(result.status)
                  << " (" << result.message << ")\n";
        return 1;
    }
    std::cout << result.payload << '\n';
    return 0;
}

int cmd_health(const Options& options) {
    serve::ServeClient client(options.socket_path);
    const serve::ClientResult result = client.health();
    if (!result.ok()) {
        std::cout << "health: " << serve::wire::status_name(result.status)
                  << " (" << result.message << ")\n";
        return 1;
    }
    std::cout << result.payload << '\n';
    // A live daemon that is draining (or never finished start()) answers
    // but is not ready for new work — surface that in the exit code so
    // `wimi_serve health` works as a readiness probe.
    const bool ready =
        result.payload.find("\"ready\":true") != std::string::npos;
    return ready ? 0 : 1;
}

int cmd_dump_flight(const Options& options) {
    serve::ServeClient client(options.socket_path);
    const serve::ClientResult result = client.dump_flight();
    if (!result.ok()) {
        std::cout << "dump-flight: "
                  << serve::wire::status_name(result.status) << " ("
                  << result.message << ")\n";
        return 1;
    }
    if (options.out.empty()) {
        std::cout << result.payload;
        return 0;
    }
    std::ofstream out(options.out, std::ios::binary | std::ios::trunc);
    ensure(out.is_open(), "cannot open " + options.out);
    out << result.payload;
    ensure(out.good(), "failed writing " + options.out);
    std::cout << "dump-flight: wrote " << result.payload.size()
              << " bytes to " << options.out << '\n';
    return 0;
}

int cmd_stop(const Options& options) {
    serve::ServeClient client(options.socket_path);
    const serve::ClientResult result = client.request_shutdown();
    if (!result.ok()) {
        std::cout << "stop: " << serve::wire::status_name(result.status)
                  << " (" << result.message << ")\n";
        return 1;
    }
    std::cout << "stop: accepted (daemon drains and exits)\n";
    return 0;
}

int usage() {
    std::cerr
        << "usage:\n"
        << "  wimi_serve start <model.wmdl> --socket <path>"
        << " [--max-queue N] [--max-batch N] [--threads T]"
        << " [--log-out f] [--telemetry-out f] [--telemetry-interval-ms N]"
        << " [--run-out ledger.jsonl] [--trace-out trace.json]"
        << " [--flight-capacity N] [--flight-snapshot f.jsonl]\n"
        << "  wimi_serve ping --socket <path>\n"
        << "  wimi_serve predict --socket <path> [--env hall|lab|library]"
        << " [--seed S] [--count K] [--trace-out trace.json]\n"
        << "  wimi_serve swap <model.wmdl> --socket <path>\n"
        << "  wimi_serve stats --socket <path>\n"
        << "  wimi_serve health --socket <path>\n"
        << "  wimi_serve dump-flight --socket <path> [--out f.jsonl]\n"
        << "  wimi_serve stop --socket <path>\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        return usage();
    }
    const std::string_view command = argv[1];
    try {
        if (command == "start" && argc >= 3) {
            return cmd_start(argv[2], parse_options(argc, argv, 3));
        }
        if (command == "ping") {
            return cmd_ping(parse_options(argc, argv, 2));
        }
        if (command == "predict") {
            return cmd_predict(parse_options(argc, argv, 2));
        }
        if (command == "swap" && argc >= 3) {
            return cmd_swap(argv[2], parse_options(argc, argv, 3));
        }
        if (command == "stats") {
            return cmd_stats(parse_options(argc, argv, 2));
        }
        if (command == "health") {
            return cmd_health(parse_options(argc, argv, 2));
        }
        if (command == "dump-flight") {
            return cmd_dump_flight(parse_options(argc, argv, 2));
        }
        if (command == "stop") {
            return cmd_stop(parse_options(argc, argv, 2));
        }
        return usage();
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
