// Unit tests for the exec layer: thread-pool scheduling, the parallel
// primitives' contract (every index exactly once, index-ordered results,
// exception propagation, nested fallback), and width/env configuration.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/obs.hpp"

namespace {

using namespace wimi;

/// Restores the process-wide pool to its default width after each test.
class ExecTest : public ::testing::Test {
protected:
    void TearDown() override { exec::set_thread_count(0); }
};

TEST_F(ExecTest, HardwareAndDefaultWidthsAreAtLeastOne) {
    EXPECT_GE(exec::hardware_threads(), 1u);
    EXPECT_GE(exec::default_thread_count(), 1u);
    EXPECT_GE(exec::thread_count(), 1u);
}

TEST_F(ExecTest, SetThreadCountResizesThePool) {
    exec::set_thread_count(3);
    EXPECT_EQ(exec::thread_count(), 3u);
    exec::set_thread_count(1);
    EXPECT_EQ(exec::thread_count(), 1u);
    exec::set_thread_count(0);
    EXPECT_EQ(exec::thread_count(), exec::default_thread_count());
}

TEST_F(ExecTest, EmptyRangeNeverInvokesTheBody) {
    exec::ThreadPool pool(4);
    bool invoked = false;
    pool.parallel_for(0, [&](std::size_t) { invoked = true; });
    EXPECT_FALSE(invoked);

    exec::parallel_for(0, [&](std::size_t) { invoked = true; });
    EXPECT_FALSE(invoked);
    const auto mapped =
        exec::parallel_map<int>(0, [](std::size_t) { return 1; });
    EXPECT_TRUE(mapped.empty());
}

TEST_F(ExecTest, EveryIndexRunsExactlyOnceWithMoreTasksThanThreads) {
    exec::ThreadPool pool(4);
    constexpr std::size_t kTasks = 997;  // not a multiple of the width
    std::vector<std::atomic<int>> hits(kTasks);
    pool.parallel_for(kTasks, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kTasks; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST_F(ExecTest, WidthOneRunsSequentiallyOnTheCallingThread) {
    exec::ThreadPool pool(4);
    std::vector<std::size_t> order;  // unsynchronized: serial path only
    pool.parallel_for(
        64, [&](std::size_t i) { order.push_back(i); }, /*width=*/1);
    ASSERT_EQ(order.size(), 64u);
    for (std::size_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(order[i], i);
    }
}

TEST_F(ExecTest, ParallelMapCollectsResultsInIndexOrder) {
    exec::set_thread_count(4);
    const auto squares = exec::parallel_map<std::size_t>(
        301, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 301u);
    for (std::size_t i = 0; i < squares.size(); ++i) {
        EXPECT_EQ(squares[i], i * i);
    }
}

TEST_F(ExecTest, TaskExceptionPropagatesToTheCaller) {
    exec::ThreadPool pool(4);
    const auto boom = [](std::size_t i) {
        if (i == 37) {
            fail("task 37 failed");
        }
    };
    EXPECT_THROW(pool.parallel_for(100, boom), Error);
    // ... and on the serial path too.
    EXPECT_THROW(pool.parallel_for(100, boom, /*width=*/1), Error);
}

TEST_F(ExecTest, PoolSurvivesATaskException) {
    exec::ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallel_for(50, [](std::size_t) { fail("always"); }), Error);
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(100, [&](std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 4950u);
}

TEST_F(ExecTest, GlobalParallelForPropagatesExceptions) {
    exec::set_thread_count(4);
    EXPECT_THROW(exec::parallel_for(
                     20, [](std::size_t) { fail("global task failed"); }),
                 Error);
}

TEST_F(ExecTest, NestedParallelForRunsInlineAndCompletes) {
    exec::ThreadPool pool(3);
    std::atomic<std::size_t> total{0};
    std::atomic<int> nested_regions_seen{0};
    pool.parallel_for(8, [&](std::size_t) {
        EXPECT_TRUE(exec::in_parallel_region());
        pool.parallel_for(50, [&](std::size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
        nested_regions_seen.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(total.load(), 8u * 50u);
    EXPECT_EQ(nested_regions_seen.load(), 8);
    EXPECT_FALSE(exec::in_parallel_region());
}

TEST_F(ExecTest, PoolOfOneHasNoWorkers) {
    exec::ThreadPool pool(1);
    EXPECT_EQ(pool.thread_count(), 1u);
    std::vector<std::size_t> order;
    pool.parallel_for(16, [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 16u);
    EXPECT_EQ(order.front(), 0u);
    EXPECT_EQ(order.back(), 15u);
}

TEST_F(ExecTest, FanOutBumpsTheTaskCounter) {
    obs::set_enabled(true);
    exec::set_thread_count(2);
    const std::uint64_t before =
        obs::registry().counter("exec.tasks").value();
    exec::parallel_for(23, [](std::size_t) {});
    EXPECT_EQ(obs::registry().counter("exec.tasks").value(), before + 23);
}

TEST_F(ExecTest, LabeledRegionRecordsWallAndCpuHistograms) {
    obs::set_enabled(true);
    exec::set_thread_count(2);
    auto& wall = obs::registry().histogram("exec.unit_test.wall_us");
    auto& cpu = obs::registry().histogram("exec.unit_test.cpu_us");
    const std::uint64_t wall_before = wall.count();
    const std::uint64_t cpu_before = cpu.count();
    exec::parallel_for(
        10, [](std::size_t) {}, {.label = "unit_test"});
    EXPECT_EQ(wall.count(), wall_before + 1);
    EXPECT_EQ(cpu.count(), cpu_before + 1);
}

}  // namespace
