// Tests for the observability off-switch, obs::set_enabled(false).
//
// Each test runs with the switch thrown (the fixture restores it) and
// checks that no WIMI_OBS_* macro touches the global registry, trace
// buffers or log sink, and that no metric operand or log field is
// evaluated.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

namespace wimi::obs {
namespace {

class ObsDisabled : public ::testing::Test {
protected:
    void SetUp() override { set_enabled(false); }
    void TearDown() override {
        set_enabled(true);
        Logger::instance().set_level(LogLevel::kInfo);
    }
};

TEST_F(ObsDisabled, EnabledGuardIsConstantFalse) {
    // The guard reads false on every evaluation while the switch is off,
    // whatever the log level, and true again once it is thrown back.
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(WIMI_OBS_ENABLED());
    }
    Logger::instance().set_level(LogLevel::kTrace);
    EXPECT_FALSE(WIMI_OBS_ENABLED());
    set_enabled(true);
    EXPECT_TRUE(WIMI_OBS_ENABLED());
}

TEST_F(ObsDisabled, MacrosDoNotTouchGlobalState) {
    registry().reset();
    trace_reset();
    const std::size_t metrics_before = registry().size();

    {
        WIMI_TRACE_SPAN("disabled.span");
        WIMI_OBS_COUNT("disabled.counter", 5);
        WIMI_OBS_GAUGE_SET("disabled.gauge", 1.25);
        WIMI_OBS_HISTOGRAM("disabled.histogram", 3.0);
    }

    EXPECT_EQ(registry().size(), metrics_before);
    EXPECT_TRUE(trace_snapshot().empty());
}

TEST_F(ObsDisabled, MacroArgumentsAreNotEvaluated) {
    int calls = 0;
    const auto count_call = [&calls] {
        ++calls;
        return 1;
    };
    const std::size_t metrics_before = registry().size();
    WIMI_OBS_COUNT("disabled.counter", count_call());
    WIMI_OBS_GAUGE_SET("disabled.gauge", count_call());
    WIMI_OBS_HISTOGRAM("disabled.histogram", count_call());
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(registry().size(), metrics_before);
}

TEST_F(ObsDisabled, LogMacrosCompileOutEntirely) {
    Logger::instance().set_level(LogLevel::kTrace);  // most permissive
    const std::uint64_t lines_before = Logger::instance().lines_written();
    const std::size_t metrics_before = registry().size();

    WIMI_OBS_LOG_TRACE("disabled.log", "trace line");
    WIMI_OBS_LOG_DEBUG("disabled.log", "debug line");
    WIMI_OBS_LOG_INFO("disabled.log", "info line");
    WIMI_OBS_LOG_WARN("disabled.log", "warn line");
    WIMI_OBS_LOG_ERROR("disabled.log", "error line");

    // No line written, and not even the log.lines counters were created.
    EXPECT_EQ(Logger::instance().lines_written(), lines_before);
    EXPECT_EQ(registry().size(), metrics_before);
}

TEST_F(ObsDisabled, LogFieldExpressionsAreNotEvaluated) {
    int calls = 0;
    const auto count_call = [&calls] {
        ++calls;
        return 1;
    };
    Logger::instance().set_level(LogLevel::kTrace);
    WIMI_OBS_LOG_ERROR("disabled.log", "with fields",
                       kv("cost", count_call()),
                       kv("flag", true));
    WIMI_OBS_LOG_INFO("disabled.log", "single field",
                      kv("cost", count_call()));
    EXPECT_EQ(calls, 0);
}

TEST_F(ObsDisabled, GuardedBlocksFoldAway) {
    bool executed = false;
    if (WIMI_OBS_ENABLED()) {
        executed = true;
    }
    EXPECT_FALSE(executed);
}

}  // namespace
}  // namespace wimi::obs
