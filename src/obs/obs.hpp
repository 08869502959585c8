// Observability entry point: include this and use the WIMI_OBS_* macros.
//
// All pipeline instrumentation routes through these macros so one
// runtime switch controls everything:
//
//   WIMI_TRACE_SPAN("wimi.identify");          // RAII stage span
//   WIMI_OBS_COUNT("csi.packets_captured", n); // counter += n
//   WIMI_OBS_GAUGE_SET("calib.subcarriers_selected", count);
//   WIMI_OBS_HISTOGRAM("svm.train.passes", passes);
//   WIMI_OBS_LOG_INFO("sim.harness", "experiment started",
//                     ::wimi::obs::kv("seed", seed));
//
// obs::set_enabled(false) is the kill-switch: each site then costs one
// relaxed atomic load, and no metric operand or log field is evaluated.
#pragma once

#include "obs/context.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

#define WIMI_OBS_CONCAT_IMPL_(a, b) a##b
#define WIMI_OBS_CONCAT_(a, b) WIMI_OBS_CONCAT_IMPL_(a, b)

#define WIMI_OBS_ENABLED() (::wimi::obs::enabled())

#define WIMI_TRACE_SPAN(name) \
    ::wimi::obs::TraceSpan WIMI_OBS_CONCAT_(wimi_obs_span_, __LINE__)(name)

#define WIMI_OBS_COUNT(name, n)                               \
    do {                                                      \
        if (::wimi::obs::enabled()) {                         \
            ::wimi::obs::registry().counter(name).add(n);     \
        }                                                     \
    } while (0)

#define WIMI_OBS_GAUGE_SET(name, value)                       \
    do {                                                      \
        if (::wimi::obs::enabled()) {                         \
            ::wimi::obs::registry().gauge(name).set(value);   \
        }                                                     \
    } while (0)

#define WIMI_OBS_HISTOGRAM(name, value)                            \
    do {                                                           \
        if (::wimi::obs::enabled()) {                              \
            ::wimi::obs::registry().histogram(name).record(value); \
        }                                                          \
    } while (0)

// Structured log line at the given level. Fields (zero or more
// ::wimi::obs::kv(...) pairs) are evaluated only when the line clears
// both the kill-switch and the level threshold:
//
//   WIMI_OBS_LOG_WARN("csi.trace", "frame CRC mismatch",
//                     ::wimi::obs::kv("frame", index));
#define WIMI_OBS_LOG_IMPL_(level_, component, message, ...)        \
    do {                                                           \
        if (::wimi::obs::log_enabled(level_)) {                    \
            ::wimi::obs::log_emit((level_), (component), (message), \
                                  {__VA_ARGS__});                  \
        }                                                          \
    } while (0)
#define WIMI_OBS_LOG_TRACE(component, message, ...)             \
    WIMI_OBS_LOG_IMPL_(::wimi::obs::LogLevel::kTrace, component, \
                       message __VA_OPT__(, ) __VA_ARGS__)
#define WIMI_OBS_LOG_DEBUG(component, message, ...)             \
    WIMI_OBS_LOG_IMPL_(::wimi::obs::LogLevel::kDebug, component, \
                       message __VA_OPT__(, ) __VA_ARGS__)
#define WIMI_OBS_LOG_INFO(component, message, ...)             \
    WIMI_OBS_LOG_IMPL_(::wimi::obs::LogLevel::kInfo, component, \
                       message __VA_OPT__(, ) __VA_ARGS__)
#define WIMI_OBS_LOG_WARN(component, message, ...)             \
    WIMI_OBS_LOG_IMPL_(::wimi::obs::LogLevel::kWarn, component, \
                       message __VA_OPT__(, ) __VA_ARGS__)
#define WIMI_OBS_LOG_ERROR(component, message, ...)             \
    WIMI_OBS_LOG_IMPL_(::wimi::obs::LogLevel::kError, component, \
                       message __VA_OPT__(, ) __VA_ARGS__)

