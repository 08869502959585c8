#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local std::vector<std::uint64_t> t_open_spans;

}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name)
    : recorder_(recorder), name_(name) {
    if (!recorder_.enabled_) {
        return;
    }
    id_ = recorder_.next_id_++;
    parent_ = t_open_spans.empty() ? 0 : t_open_spans.back();
    t_open_spans.push_back(id_);
    start_ = Clock::now();
}

SpanRecorder::Scope::~Scope() {
    if (!recorder_.enabled_) {
        return;
    }
    const Clock::time_point end = Clock::now();
    t_open_spans.pop_back();
    recorder_.events_.push_back({name_, start_, end, id_, parent_});
}

std::uint64_t SpanRecorder::record(const char* name, Clock::time_point start,
                                   Clock::time_point end,
                                   std::uint64_t parent) {
    if (!enabled_) {
        return 0;
    }
    const std::uint64_t id = next_id_++;
    events_.push_back({name, start, end, id, parent});
    return id;
}

std::unordered_map<std::uint64_t, double> SpanRecorder::child_us() const {
    std::unordered_map<std::uint64_t, double> out;
    for (const Event& e : events_) {
        if (e.parent != 0) {
            out[e.parent] += us_between(e.start, e.end);
        }
    }
    return out;
}

double SpanRecorder::self_us(
    const Event& e,
    const std::unordered_map<std::uint64_t, double>& child) const {
    const auto it = child.find(e.id);
    return us_between(e.start, e.end) -
           (it == child.end() ? 0.0 : it->second);
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
    const auto child = child_us();
    std::map<std::string, Totals> out;
    for (const Event& e : events_) {
        const double dur = us_between(e.start, e.end);
        Totals& t = out[e.name];
        ++t.count;
        t.total_us += dur;
        t.self_us += self_us(e, child);
        t.durations_us.push_back(dur);
    }
    return out;
}

double SpanRecorder::residual_share() const {
    const auto child = child_us();
    double root_us = 0.0;
    double layer_us = 0.0;
    for (const Event& e : events_) {
        if (e.parent == 0) {
            root_us += us_between(e.start, e.end);
        } else {
            layer_us += self_us(e, child);
        }
    }
    return root_us > 0.0 ? (root_us - layer_us) / root_us : 0.0;
}

void SpanRecorder::write_chrome_trace(const std::filesystem::path& path,
                                      std::size_t max_events) const {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"traceEvents\":[";
    Clock::time_point origin = Clock::time_point::max();
    for (const Event& e : events_) {
        origin = std::min(origin, e.start);
    }
    for (std::size_t i = 0; i < events_.size() && i < max_events; ++i) {
        const Event& e = events_[i];
        out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << e.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << us_between(origin, e.start)
            << ",\"dur\":" << us_between(e.start, e.end)
            << ",\"args\":{\"id\":" << e.id << ",\"parent\":" << e.parent
            << "}}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace perfbench
