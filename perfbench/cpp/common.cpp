#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>

#include <malloc.h>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
    if (values.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (const double v : values) {
        sum += v;
    }
    return sum / static_cast<double>(values.size());
}

double supported_tail(std::size_t samples) {
    for (const double q : {0.999, 0.99, 0.9}) {
        if (static_cast<double>(samples) * (1.0 - q) >= 10.0) {
            return q;
        }
    }
    return 0.5;
}

double self_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;
        }
    }
    return 0.0;
}

void reset_peak_rss(Report& report) {
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    report.info("rss.peak_reset",
                clear ? "after set-up and warm-up" : "unsupported (whole run)");
}

Report::Report(std::string workload) : workload_(std::move(workload)) {}

void Report::metric(const std::string& name, const std::string& unit,
                    double value) {
    metrics_[name] = {unit, value};
    std::printf("metric %s %s %s %.9g\n", workload_.c_str(), name.c_str(),
                unit.c_str(), value);
    std::fflush(stdout);
}

void Report::info(const std::string& key, const std::string& value) {
    std::printf("info %s %s %s\n", workload_.c_str(), key.c_str(),
                value.c_str());
    std::fflush(stdout);
}

void Report::attempt(bool ok) {
    ++attempted_;
    if (!ok) {
        ++failed_;
    }
}

void Report::add_attempts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
}

void Report::miss(const std::string& what) {
    ++misses_;
    // Only the first few are spelled out; the count says the rest.
    if (misses_ <= 5) {
        std::fprintf(stderr, "perfbench: correctness miss (%s): %s\n",
                     workload_.c_str(), what.c_str());
    }
}

bool Report::print_result(const std::vector<MetricSpec>& specs) const {
    bool complete = true;
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (correct() ? "true" : "false")
         << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto it = metrics_.find(specs[i].name);
        double value = 0.0;
        if (it != metrics_.end() && std::isfinite(it->second.value)) {
            value = it->second.value;
        } else {
            complete = false;
            std::fprintf(stderr, "perfbench: %s not measured on %s\n",
                         specs[i].name, workload_.c_str());
        }
        json << (i == 0 ? "" : ", ") << '"' << specs[i].name
             << "\": {\"value\": " << value << ", \"unit\": \""
             << specs[i].unit << "\"}";
    }
    json << "}}";
    if (!complete) {
        return false;
    }
    std::cout << json.str() << std::endl;
    return true;
}

void SegmentMedians::report(Report& report, const std::string& name,
                            const std::string& unit) const {
    const auto it = values_.find(name);
    if (it == values_.end()) {
        return;
    }
    std::ostringstream line;
    line.precision(6);
    line << name;
    for (const double v : it->second) {
        line << ' ' << v;
    }
    report.info("segments", line.str());
    report.metric(name, unit, median(it->second));
}

}  // namespace perfbench
