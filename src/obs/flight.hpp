// Flight recorder: the serving plane's postmortem black box.
//
// A bounded in-memory ring of per-request records (trace id, arrival
// timestamp, queue wait, batch size, model digest, outcome, end-to-end
// latency). Appends are O(1) and lock-free — a slot index from one
// relaxed fetch_add plus relaxed stores into per-field atomics — so the
// recorder is safe to call from the daemon's batcher, pool workers, and
// connection threads at line rate. The ring can be dumped on demand as
// `wimi.flight.v1` JSONL (one object per record, oldest first) and
// auto-snapshots itself to a configured path when a burst of non-ok
// outcomes crosses a threshold, so the black box survives the overload
// or error storm it just witnessed.
//
// Consistency model: each slot carries a sequence number written last;
// a reader re-checks the sequence after reading the fields and drops
// the slot if an append overtook it mid-read. Torn records are thereby
// excluded from dumps instead of showing fields from two different
// requests. Model digests are interned (appends store a small index;
// interning takes a lock only on the rare hot-swap path).
//
// The recorder is independent of the obs kill-switch: it has no macro
// call sites, costs a handful of relaxed stores per
// request, and a capacity of 0 disables it entirely (appends become
// no-ops, dumps are empty).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace wimi::obs {

/// Terminal outcome of one request, mirroring serve::wire::Status.
enum class FlightOutcome : std::uint32_t {
    kOk = 0,
    kOverloaded = 1,
    kBadRequest = 2,
    kServerError = 3,
    kShuttingDown = 4,
};

/// Human-readable outcome name ("ok", "overloaded", ...).
std::string_view flight_outcome_name(FlightOutcome outcome) noexcept;

/// One request's worth of black-box data, as passed to append().
struct FlightSample {
    std::uint64_t trace_id = 0;    ///< caller's trace id (0 = untraced)
    std::uint64_t request_id = 0;  ///< wire request id
    double arrival_ts_us = 0.0;    ///< trace-clock arrival timestamp
    double queue_us = 0.0;         ///< admission-queue wait
    double e2e_us = 0.0;           ///< arrival -> response latency
    std::uint32_t batch_size = 0;  ///< size of the batch that served it
    FlightOutcome outcome = FlightOutcome::kOk;
    bool sampled = false;          ///< tail sampler retained full telemetry
    std::uint32_t digest_index = 0;  ///< from intern_digest()
};

/// A decoded record as returned by snapshot(): the sample plus its
/// global append sequence and the resolved digest string.
struct FlightRecord {
    std::uint64_t seq = 0;  ///< 1-based global append index
    FlightSample sample;
    std::string model_digest;
};

struct FlightRecorderOptions {
    /// Ring capacity in records; 0 disables the recorder.
    std::size_t capacity = 1024;
    /// When non-empty, the ring is dumped to this path (truncated each
    /// time) whenever `burst_threshold` non-ok outcomes accumulate
    /// since the last snapshot.
    std::string snapshot_path;
    /// Non-ok records between automatic snapshots.
    std::uint64_t burst_threshold = 32;
    /// Floor between automatic snapshots, in microseconds of the trace
    /// clock, so a sustained error storm does not turn into disk I/O
    /// per request.
    double snapshot_min_interval_us = 1e6;
};

class FlightRecorder {
public:
    explicit FlightRecorder(FlightRecorderOptions options = {});

    FlightRecorder(const FlightRecorder&) = delete;
    FlightRecorder& operator=(const FlightRecorder&) = delete;

    bool enabled() const noexcept { return !slots_.empty(); }

    /// Interns a model digest and returns its index for FlightSample.
    /// Takes a lock; call on swap/startup, not per request. Returns 0
    /// (rendered as "") when the recorder is disabled.
    std::uint32_t intern_digest(const std::string& digest);

    /// Records one request. Lock-free, O(1), safe from any thread.
    void append(const FlightSample& sample) noexcept;

    /// Decodes the ring, oldest first. Slots overtaken by concurrent
    /// appends mid-read are skipped rather than returned torn.
    std::vector<FlightRecord> snapshot() const;

    /// snapshot() rendered as `wimi.flight.v1` JSONL.
    std::string dump_json() const;

    /// Writes dump_json() to `path` (truncate). Throws wimi::Error on
    /// I/O failure.
    void dump_to_file(const std::string& path) const;

    std::uint64_t total_appended() const noexcept {
        return next_seq_.load(std::memory_order_relaxed);
    }
    std::uint64_t auto_snapshots() const noexcept {
        return auto_snapshots_.load(std::memory_order_relaxed);
    }

private:
    /// One ring slot. seq == 0 means "never written". Writers store the
    /// fields with relaxed ordering and publish seq last (release);
    /// readers load seq (acquire), the fields, then seq again to
    /// detect a concurrent overwrite.
    struct Slot {
        std::atomic<std::uint64_t> seq{0};
        std::atomic<std::uint64_t> trace_id{0};
        std::atomic<std::uint64_t> request_id{0};
        std::atomic<double> arrival_ts_us{0.0};
        std::atomic<double> queue_us{0.0};
        std::atomic<double> e2e_us{0.0};
        std::atomic<std::uint32_t> batch_size{0};
        std::atomic<std::uint32_t> outcome{0};
        std::atomic<std::uint32_t> digest_index{0};
        std::atomic<bool> sampled{false};
    };

    void maybe_auto_snapshot() noexcept;

    FlightRecorderOptions options_;
    std::vector<Slot> slots_;
    std::atomic<std::uint64_t> next_seq_{0};
    std::atomic<std::uint64_t> non_ok_since_snapshot_{0};
    std::atomic<std::uint64_t> auto_snapshots_{0};

    mutable std::mutex digest_mutex_;
    std::vector<std::string> digests_;  ///< index 0 reserved for ""

    mutable std::mutex snapshot_mutex_;
    double last_snapshot_us_ = -1e18;  ///< guarded by snapshot_mutex_
};

}  // namespace wimi::obs
