// Shared plumbing of the WiMi benchmark: command-line arguments, the
// metric report (one text line per metric, then one JSON result line),
// order statistics, and readers for CPU time and peak RSS.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "exec/parallel.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

inline double us_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::micro>(to - from).count();
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string commit = "unknown";
    std::string source_digest = "unknown";
    /// Directory of the wimi_serve binary built next to this one.
    std::filesystem::path bin_dir;
    /// Checkout root: private run directories and span files go under
    /// <root>/.bench_runs.
    std::filesystem::path root;
};

/// A metric of the BENCHMARK.json catalogue.
struct MetricSpec {
    const char* name;
    const char* unit;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Highest of p50/p90/p99/p99.9 that leaves at least ten samples beyond
/// it, as a fraction (0.99 etc.).
double supported_tail(std::size_t samples);

/// CPU seconds (user + system) of the calling process.
double self_cpu_seconds();
/// VmHWM of the calling process in MB, from /proc/self/status.
double peak_rss_mb();

/// Collects metrics and correctness misses for one run and renders them.
/// Every metric is printed as it is recorded:
///   metric <workload> <name> <unit> <value>
/// and print_result() emits the final JSON line with the requested names.
class Report {
public:
    explicit Report(std::string workload);

    void metric(const std::string& name, const std::string& unit,
                double value);
    /// Free-form context line: info <workload> <key> <value>.
    void info(const std::string& key, const std::string& value);

    /// Counts one unit of work attempted, and one failed when !ok.
    void attempt(bool ok);
    void add_attempts(std::uint64_t attempted, std::uint64_t failed);
    /// Records a correctness miss: the run reports correct=false.
    void miss(const std::string& what);

    bool correct() const { return misses_ == 0; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /// Prints the JSON result line with the metrics in `specs`. A spec
    /// that was never recorded is named on stderr and fails the call;
    /// nothing is printed then.
    bool print_result(const std::vector<MetricSpec>& specs) const;

private:
    struct Value {
        std::string unit;
        double value = 0.0;
    };
    std::string workload_;
    std::map<std::string, Value> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t misses_ = 0;
};

/// The measured part of a run is cut into this many segments; each
/// end-to-end figure is the median of its per-segment values, so a burst
/// of host noise that spoils one segment does not move the run's figure.
inline constexpr int kSegments = 5;

/// Per-segment values of the end-to-end metrics.
class SegmentMedians {
public:
    void add(const std::string& name, double value) {
        values_[name].push_back(value);
    }
    /// Records the median of `name`'s segment values as a metric, and the
    /// values themselves as an info line.
    void report(Report& report, const std::string& name,
                const std::string& unit) const;

private:
    std::map<std::string, std::vector<double>> values_;
};

/// Returns freed heap to the system and resets this process's VmHWM to
/// its current RSS, so that peak_rss_mb read later covers only what runs
/// after the call, not the set-up repeats. Says on an info line whether
/// the kernel allowed the reset.
void reset_peak_rss(Report& report);

/// Times `setup` `repeats` times on one exec thread and returns the
/// median wall seconds; the state of the last repeat is the one the run
/// keeps, and the exec pool is back at its default width afterwards.
/// At full width, set-up time followed how many CPUs the rest of the host
/// left free; on one thread it does not.
template <typename Fn>
double median_setup_seconds(int repeats, Fn&& setup) {
    wimi::exec::set_thread_count(1);
    std::vector<double> seconds;
    for (int i = 0; i < repeats; ++i) {
        const auto t0 = Clock::now();
        setup();
        seconds.push_back(seconds_between(t0, Clock::now()));
    }
    wimi::exec::set_thread_count(0);
    return median(seconds);
}

}  // namespace perfbench
