// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// The pipeline's domain instrumentation (packets captured, outliers
// clipped, subcarriers rejected, SMO passes, ...) and its stage timings
// all land here. Design constraints, in order:
//
//   1. cheap enough to leave on in production — counters are single
//      relaxed atomic adds; histograms touch two atomics plus a bucket;
//   2. thread-safe — experiments and future serving paths update metrics
//      from many threads; every metric object is lock-free after creation
//      and the registry itself only takes a mutex on name lookup;
//   3. stable references — registry lookups return references that remain
//      valid for the registry's lifetime, so hot paths may cache them.
//      reset() zeroes values in place rather than destroying objects.
//
// Prefer the WIMI_OBS_* macros in obs/obs.hpp over direct registry calls:
// they honor the runtime kill-switch.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace wimi::obs {

/// Monotonic event count.
class Counter {
public:
    void add(std::uint64_t n = 1) noexcept {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
public:
    void set(double v) noexcept {
        value_.store(v, std::memory_order_relaxed);
    }

    double value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

private:
    std::atomic<double> value_{0.0};
};

/// Point-in-time digest of one histogram.
struct HistogramSummary {
    std::uint64_t count = 0;      ///< finite observations only
    std::uint64_t nonfinite = 0;  ///< NaN/Inf observations (not in stats)
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    /// Non-empty finite buckets: upper edge and count, parallel arrays in
    /// ascending edge order. Observations above the last configured edge
    /// are in `overflow` (they count toward `count` too). Exposed so the
    /// report / exporter / Prometheus rendering can reconstruct the
    /// distribution and wimi_regress rules can see the edges.
    std::vector<double> bucket_le;
    std::vector<std::uint64_t> bucket_count;
    std::uint64_t overflow = 0;
};

/// Fixed-bucket histogram with percentile estimation.
///
/// Buckets are defined by ascending upper edges; values above the last
/// edge land in an overflow bucket. Percentiles are estimated by linear
/// interpolation inside the winning bucket and clamped to the observed
/// [min, max], so they are exact at the extremes and within one bucket
/// width elsewhere.
class Histogram {
public:
    /// Default bucket edges: logarithmic, 3 per decade from 1e-9 to 1e9 —
    /// wide enough for microsecond durations and Eq. 7 variances alike.
    static std::vector<double> default_bucket_edges();

    explicit Histogram(std::vector<double> upper_edges =
                           default_bucket_edges());

    /// Records one observation. Thread-safe, lock-free. Non-finite values
    /// (NaN/Inf) are counted separately and kept out of the buckets and
    /// the min/max/sum stats, so one poisoned sample cannot silently turn
    /// every downstream aggregate into NaN — the report shows them in the
    /// summary's `nonfinite` field instead.
    void record(double value) noexcept;

    std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }

    /// Number of NaN/Inf observations rejected from the stats.
    std::uint64_t nonfinite_count() const noexcept {
        return nonfinite_.load(std::memory_order_relaxed);
    }

    /// The configured ascending upper bucket edges (overflow excluded).
    const std::vector<double>& bucket_edges() const noexcept {
        return edges_;
    }

    HistogramSummary summary() const;

    /// Zeroes all state in place (references stay valid).
    void reset() noexcept;

private:
    double atomic_load(const std::atomic<double>& a) const noexcept {
        return a.load(std::memory_order_relaxed);
    }

    std::vector<double> edges_;  // ascending upper edges
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // edges+1
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> nonfinite_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
};

/// Name -> metric map. One global instance (registry()) backs the
/// WIMI_OBS_* macros; tests may create their own.
class MetricsRegistry {
public:
    /// Finds or creates the named metric. The returned reference stays
    /// valid for the registry's lifetime.
    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    Histogram& histogram(std::string_view name);
    /// Creates the histogram with explicit bucket edges on first use
    /// (edges are ignored if the name already exists).
    Histogram& histogram(std::string_view name,
                         std::vector<double> upper_edges);

    /// Total number of registered metrics across all three kinds.
    std::size_t size() const;

    /// Zeroes every metric in place. Cached references stay valid.
    void reset();

    /// Ordered snapshot of current values (names sorted per kind).
    struct Snapshot {
        std::vector<std::pair<std::string, std::uint64_t>> counters;
        std::vector<std::pair<std::string, double>> gauges;
        std::vector<std::pair<std::string, HistogramSummary>> histograms;
    };
    Snapshot snapshot() const;

private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        histograms_;
};

/// The process-wide registry the WIMI_OBS_* macros write to.
MetricsRegistry& registry();

/// Runtime kill-switch for all obs macros (default on). Flipping it off
/// reduces instrumentation to one relaxed atomic load per site — the
/// baseline the bench's overhead comparison measures against.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

}  // namespace wimi::obs
