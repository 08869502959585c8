// The serve layer's per-layer figures: load against a wimi_serve daemon
// running as a child process, over four Unix-domain connections.
//
// The load generator is one thread of this process. It writes WSRQ
// records encoded before the load starts (so its own cost stays far below
// the daemon's), polls the four connections, and matches each WSRP
// answer to its request (the daemon answers one connection in order). The
// traffic is the deployed-sensor case: connection c is sensor c, which
// keeps one empty-beaker baseline and sends a fresh target every time.
// It runs two kinds of phases:
//
//   closed loop — each connection sends its next request when the answer
//     to the last one arrives. Queue wait, batch wall, batch size and
//     transport come from here.
//   open loop — requests are due on a fixed schedule (round robin, uniform
//     spacing) and pipelined, so a slow daemon builds a backlog instead of
//     slowing the schedule. One phase at a nominal rate gives the
//     generator's own lateness and backlog.
//
// Serve figures depend on how the host schedules the daemon's threads as
// much as on the code, so no serve workload is gated; every traced run
// measures the daemon's layers here instead (perfbench/README.md).
#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.hpp"
#include "daemon_child.hpp"
#include "serve/client.hpp"
#include "serve/inference.hpp"
#include "serve/model_io.hpp"
#include "serve/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace wimi;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kTargetsPerSensor = 64;
constexpr const char* kModelPath = "model.wmdl";
constexpr const char* kSocketPath = "serve.sock";
constexpr const char* kDaemonLog = "daemon.log";

/// Open-loop rate of the generator's own figures: roughly half of the
/// open-loop capacity a stock Release build showed on a 4-core
/// virtualised x86 host.
constexpr double kNominalRps = 500.0;
/// Requests each connection keeps outstanding in the closed loop: a
/// sensor sends its next capture when the answer to the last one arrives.
constexpr std::size_t kClosedLoopWindow = 1;

struct Record {
    std::vector<std::uint8_t> bytes;
    std::uint64_t request_id = 0;
    int label = -1;  ///< the in-process InferenceEngine answer
};

struct ServeSetup {
    std::vector<std::vector<Record>> per_connection;
    Fixture fixture;
    std::string digest;
    std::unique_ptr<DaemonProcess> daemon;
};

std::unique_ptr<ServeSetup> build_setup(const Args& args,
                                        const Fixture& fixture) {
    auto setup = std::make_unique<ServeSetup>();
    setup->fixture = fixture;
    const sim::Scenario scenario(setup->fixture.scenario);
    const serve::InferenceEngine engine(setup->fixture.model);
    setup->per_connection.resize(kConnections);
    // Connection c is sensor c: one baseline, a fresh target each time.
    const std::vector<Pair> pairs = make_sensor_pairs(
        scenario, args.seed, kConnections, kTargetsPerSensor);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        serve::wire::Request request;
        request.type = serve::wire::MessageType::kPredictSeries;
        request.request_id = i + 1;
        request.baseline = pairs[i].baseline;
        request.target = pairs[i].target;
        setup->per_connection[i / kTargetsPerSensor].push_back(
            {serve::wire::encode_request(request), request.request_id,
             engine.predict(pairs[i].baseline, pairs[i].target)
                 .material_id});
    }
    serve::save_model_file(kModelPath, setup->fixture.model);
    setup->digest = serve::model_file_digest(kModelPath);
    setup->daemon = std::make_unique<DaemonProcess>(
        args.bin_dir / "wimi_serve", kModelPath, kSocketPath, kDaemonLog);
    return setup;
}

int connect_unix(const std::string& path) {
    const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ensure(fd >= 0, "perfbench: socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ensure(path.size() < sizeof(addr.sun_path),
           "perfbench: socket path too long");
    std::copy(path.begin(), path.end(), addr.sun_path);
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
        close(fd);
        fail("perfbench: cannot connect to " + path);
    }
    return fd;
}

/// What one load phase saw.
struct LoadResult {
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    std::uint64_t failed = 0;
    std::uint64_t transport_errors = 0;
    std::uint64_t wrong = 0;
    std::uint64_t backlog_max = 0;
    std::vector<double> lateness_ms;  ///< send time - due time
    std::vector<double> queue_us;
    std::vector<double> batch_wall_us;
    std::vector<double> batch_size;
    std::vector<double> transport_us;  ///< round trip - queue - batch

    std::uint64_t errors() const {
        return failed + shed + transport_errors + wrong;
    }
};

/// Four pipelined connections and the schedule that drives them. One
/// thread both sends and receives, busy-polling: a sleeping thread on a
/// virtualised host can wake milliseconds late, which would show up as
/// generator lateness and request latency that are not the daemon's.
class LoadGenerator {
public:
    explicit LoadGenerator(const ServeSetup& setup) : setup_(setup) {
        try {
            for (std::size_t c = 0; c < kConnections; ++c) {
                fds_.push_back(connect_unix(setup.daemon->socket_path()));
                polls_.push_back({fds_.back(), POLLIN, 0});
            }
        } catch (...) {
            for (const int fd : fds_) {
                close(fd);
            }
            throw;
        }
    }
    ~LoadGenerator() {
        for (const int fd : fds_) {
            close(fd);
        }
    }
    LoadGenerator(const LoadGenerator&) = delete;
    LoadGenerator& operator=(const LoadGenerator&) = delete;

    /// Sends at `rate` for `seconds`, then waits for every answer. A rate
    /// of 0 runs a closed loop instead: every connection keeps
    /// kClosedLoopWindow requests outstanding. Returns false when the
    /// connections are no longer usable.
    bool run(double rate, double seconds, LoadResult& out);

private:
    struct InFlight {
        Clock::time_point sent;
        std::size_t record;
    };

    void send(std::size_t c, Clock::time_point due, LoadResult& out);
    /// Reads every answer that has arrived; false on a broken connection.
    bool receive(LoadResult& out);

    const ServeSetup& setup_;
    std::vector<int> fds_;
    std::vector<pollfd> polls_;
    std::vector<std::size_t> cursor_ = std::vector<std::size_t>(kConnections);
    std::vector<std::deque<InFlight>> in_flight_{kConnections};
    std::uint64_t outstanding_ = 0;
    bool broken_ = false;
};

bool LoadGenerator::run(double rate, double seconds, LoadResult& out) {
    out = LoadResult{};
    if (broken_) {
        return false;
    }
    const bool closed_loop = rate <= 0.0;
    const auto interval = std::chrono::duration<double>(
        closed_loop ? 0.0 : 1.0 / rate);
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    std::uint64_t next = 0;
    auto due = t0;
    bool sending = true;
    Clock::time_point drain_deadline{};
    while (!broken_) {
        const auto now = Clock::now();
        if (closed_loop && sending) {
            for (std::size_t c = 0; c < kConnections; ++c) {
                while (in_flight_[c].size() < kClosedLoopWindow) {
                    send(c, now, out);
                }
            }
            if (now >= end) {
                sending = false;
                drain_deadline = now + std::chrono::seconds(20);
            }
        } else if (sending && now >= due) {
            send(next % kConnections, due, out);
            ++next;
            due = t0 + std::chrono::duration_cast<Clock::duration>(
                           interval * static_cast<double>(next));
            if (due >= end) {
                sending = false;
                drain_deadline = now + std::chrono::seconds(20);
            }
        } else if (!sending && outstanding_ == 0) {
            break;
        } else if (!sending && now > drain_deadline) {
            std::fprintf(stderr, "perfbench: %llu answers never arrived\n",
                         static_cast<unsigned long long>(outstanding_));
            out.transport_errors += outstanding_;
            broken_ = true;
        }
        if (!receive(out)) {
            broken_ = true;
        }
    }
    return !broken_;
}

void LoadGenerator::send(std::size_t c, Clock::time_point due,
                         LoadResult& out) {
    const std::vector<Record>& records = setup_.per_connection[c];
    const std::size_t index = cursor_[c]++ % records.size();
    const auto sent = Clock::now();
    in_flight_[c].push_back({sent, index});
    ++outstanding_;
    out.backlog_max = std::max(out.backlog_max, outstanding_);
    out.lateness_ms.push_back(
        std::chrono::duration<double, std::milli>(sent - due).count());
    ++out.sent;
    try {
        serve::wire::write_record(fds_[c], records[index].bytes);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: send failed: %s\n", e.what());
        broken_ = true;
    }
}

bool LoadGenerator::receive(LoadResult& out) {
    if (poll(polls_.data(), polls_.size(), 0) <= 0) {
        return true;
    }
    for (std::size_t c = 0; c < polls_.size(); ++c) {
        if ((polls_[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
            continue;
        }
        serve::wire::Response response;
        try {
            auto raw = serve::wire::read_record(fds_[c], "WSRP");
            ensure(raw.has_value(), "daemon closed the connection");
            response = serve::wire::decode_response(*raw);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: receive failed: %s\n",
                         e.what());
            out.transport_errors += outstanding_;
            return false;
        }
        const auto now = Clock::now();
        if (in_flight_[c].empty()) {
            std::fprintf(stderr, "perfbench: unsolicited answer\n");
            return false;
        }
        const InFlight request = in_flight_[c].front();
        in_flight_[c].pop_front();
        --outstanding_;
        const Record& record = setup_.per_connection[c][request.record];
        if (response.request_id != record.request_id) {
            ++out.wrong;
            continue;
        }
        if (response.status == serve::wire::Status::kOverloaded) {
            ++out.shed;
            continue;
        }
        if (response.status != serve::wire::Status::kOk) {
            ++out.failed;
            continue;
        }
        if (response.material_id != record.label ||
            response.model_digest != setup_.digest) {
            ++out.wrong;
            continue;
        }
        ++out.ok;
        out.queue_us.push_back(response.queue_us);
        out.batch_wall_us.push_back(response.batch_wall_us);
        out.batch_size.push_back(response.batch_size);
        out.transport_us.push_back(us_between(request.sent, now) -
                                   response.queue_us -
                                   response.batch_wall_us);
    }
    return true;
}

std::uint64_t stats_counter(const std::string& json, const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = json.find(needle);
    if (at == std::string::npos) {
        return 0;
    }
    return std::stoull(json.substr(at + needle.size()));
}

void check_phase(const LoadResult& r, const char* phase, Report& report) {
    report.add_attempts(r.sent, r.errors());
    if (r.wrong != 0) {
        report.miss(std::string(phase) + ": " + std::to_string(r.wrong) +
                    " answers differ from the in-process engine");
    }
    if (r.errors() != 0) {
        report.miss(std::string(phase) + ": " + std::to_string(r.errors()) +
                    " of " + std::to_string(r.sent) +
                    " requests failed, were shed or were lost");
    }
}

/// The daemon's per-layer figures: the closed loop (queue wait, batch,
/// transport per request), then the open loop at the nominal rate for the
/// generator's own figures, and the daemon's counters.
void measure_daemon_layers(const ServeSetup& setup, LoadGenerator& generator,
                           double seconds, Report& report) {
    LoadResult closed;
    ensure(generator.run(0.0, seconds * 0.7, closed),
           "perfbench: closed-loop phase lost its connections");
    check_phase(closed, "closed-loop", report);
    report.metric("serve.queue_wait_p50_us", "us",
                  quantile(closed.queue_us, 0.5));
    report.metric("serve.queue_wait_p99_us", "us",
                  quantile(closed.queue_us, 0.99));
    report.metric("serve.batch_wall_p50_us", "us",
                  quantile(closed.batch_wall_us, 0.5));
    report.metric("serve.batch_size_mean", "count", mean(closed.batch_size));
    report.metric("serve.transport_p50_us", "us",
                  quantile(closed.transport_us, 0.5));
    report.metric("serve.sent", "count", static_cast<double>(closed.sent));
    report.metric("serve.ok", "count", static_cast<double>(closed.ok));
    report.metric("serve.shed", "count", static_cast<double>(closed.shed));
    report.metric("serve.failed", "count",
                  static_cast<double>(closed.failed +
                                      closed.transport_errors));
    LoadResult nominal;
    ensure(generator.run(kNominalRps, seconds * 0.3, nominal),
           "perfbench: open-loop phase lost its connections");
    check_phase(nominal, "open-loop", report);
    report.metric("gen.lateness_p99_ms", "ms",
                  quantile(nominal.lateness_ms, 0.99));
    report.metric("gen.backlog_max", "count",
                  static_cast<double>(nominal.backlog_max));

    serve::ServeClient admin(setup.daemon->socket_path());
    const serve::ClientResult stats = admin.stats();
    ensure(stats.ok(), "perfbench: daemon stats request failed");
    report.metric("serve.daemon_requests", "count",
                  static_cast<double>(stats_counter(stats.payload,
                                                    "requests")));
    report.metric("serve.daemon_batches", "count",
                  static_cast<double>(stats_counter(stats.payload,
                                                    "batches")));
}

/// Checks the daemon's own counters and that it drains and exits.
void stop_daemon(ServeSetup& setup, Report& report) {
    {
        serve::ServeClient admin(setup.daemon->socket_path());
        const serve::ClientResult stats = admin.stats();
        ensure(stats.ok(), "perfbench: daemon stats request failed");
        const std::uint64_t overloads =
            stats_counter(stats.payload, "rejected_overload");
        const std::uint64_t server_errors =
            stats_counter(stats.payload, "server_errors");
        if (overloads != 0 || server_errors != 0) {
            report.miss("daemon counted " + std::to_string(overloads) +
                        " overload rejections and " +
                        std::to_string(server_errors) + " server errors");
        }
    }
    if (!setup.daemon->stop()) {
        report.miss("wimi_serve did not drain and exit cleanly");
    }
}

}  // namespace

void run_daemon_layers(const Args& args, const Fixture& fixture,
                       double seconds, Report& report) {
    const std::unique_ptr<ServeSetup> setup = build_setup(args, fixture);
    {
        LoadGenerator generator(*setup);
        // Warm-up: connection threads, the batcher and the exec pool of
        // the daemon all start lazily.
        LoadResult warm;
        ensure(generator.run(0.0, 1.0, warm),
               "perfbench: warm-up lost its connections");
        check_phase(warm, "warm-up", report);
        measure_daemon_layers(*setup, generator, seconds, report);
    }
    stop_daemon(*setup, report);
}

}  // namespace perfbench
