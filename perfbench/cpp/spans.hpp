// Spans recorded from the benchmark's own code around its calls into
// each layer (nothing inside the program is instrumented). A span has a
// name, a start, an end and the span that caused it; spans are kept in
// memory and written out as a Chrome trace when the run ends.
//
// Spans are recorded from one thread; the benchmark never records from
// two at once. A layer's self time is its span's duration minus the part
// its child spans cover. Root spans (no parent) mark one end-to-end unit of work —
// a pair, a frame, a request — and the residual is the root time that no
// layer span covers.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"

namespace perfbench {

class SpanRecorder {
public:
    /// A disabled recorder makes every call a no-op, so one code path
    /// serves the untraced and the traced run.
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /// RAII span on the calling thread; its parent is the innermost
    /// open Scope of the same thread.
    class Scope {
    public:
        Scope(SpanRecorder& recorder, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        /// 0 when the recorder is disabled.
        std::uint64_t id() const { return id_; }

    private:
        SpanRecorder& recorder_;
        const char* name_;
        std::uint64_t id_ = 0;
        std::uint64_t parent_ = 0;
        Clock::time_point start_;
    };

    /// Records an already finished span; returns its id (0 if disabled).
    std::uint64_t record(const char* name, Clock::time_point start,
                         Clock::time_point end, std::uint64_t parent = 0);

    struct Totals {
        std::uint64_t count = 0;
        double total_us = 0.0;
        double self_us = 0.0;
        std::vector<double> durations_us;
    };
    /// Per-name totals over every span recorded so far.
    std::map<std::string, Totals> totals() const;

    /// (root time - layer self time) / root time; 0 without roots.
    double residual_share() const;

    /// Writes at most `max_events` spans as Chrome trace JSON.
    void write_chrome_trace(const std::filesystem::path& path,
                            std::size_t max_events = 200000) const;

private:
    struct Event {
        const char* name;
        Clock::time_point start;
        Clock::time_point end;
        std::uint64_t id;
        std::uint64_t parent;
    };

    /// Time each span's children cover, by parent id.
    std::unordered_map<std::uint64_t, double> child_us() const;
    double self_us(const Event& e,
                   const std::unordered_map<std::uint64_t, double>& child)
        const;

    bool enabled_;
    std::vector<Event> events_;
    std::uint64_t next_id_ = 1;
};

}  // namespace perfbench
