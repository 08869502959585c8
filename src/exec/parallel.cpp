#include "exec/parallel.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/obs.hpp"

namespace wimi::exec {
namespace {

std::mutex g_pool_mutex;

// The slot is a function-local static, constructed on first use and
// only after obs::registry() below: static teardown runs in reverse
// order of construction, so the pool — whose workers write the
// exec.queue_depth gauge — is destroyed (joining every worker) before
// the registry those writes land in. A namespace-scope g_pool would
// finish constructing at load time and outlive the registry.
std::shared_ptr<ThreadPool>& pool_slot() {
    static std::shared_ptr<ThreadPool> pool;
    return pool;
}

std::shared_ptr<ThreadPool> acquire_pool() {
    const std::lock_guard<std::mutex> lock(g_pool_mutex);
    obs::registry();
    auto& slot = pool_slot();
    if (!slot) {
        slot = std::make_shared<ThreadPool>(default_thread_count());
    }
    return slot;
}

}  // namespace

std::size_t hardware_threads() noexcept {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

std::optional<std::size_t> parse_thread_env(
    std::string_view value) noexcept {
    if (value.empty()) {
        return std::nullopt;
    }
    std::size_t parsed = 0;
    bool saturated = false;
    for (const char c : value) {
        if (c < '0' || c > '9') {
            // Rejects signs too: strtoul would silently wrap "-1" to
            // ULONG_MAX and pass a >= 1 check.
            return std::nullopt;
        }
        const std::size_t digit = static_cast<std::size_t>(c - '0');
        constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
        if (saturated || parsed > (kMax - digit) / 10) {
            saturated = true;
            parsed = kMax;
            continue;
        }
        parsed = parsed * 10 + digit;
    }
    if (parsed == 0) {
        return std::nullopt;
    }
    return parsed;
}

std::size_t max_thread_env() noexcept { return 4 * hardware_threads(); }

std::size_t resolve_thread_count(const char* env_value) {
    if (env_value == nullptr) {
        return hardware_threads();
    }
    const std::optional<std::size_t> parsed = parse_thread_env(env_value);
    if (!parsed.has_value()) {
        WIMI_OBS_LOG_WARN(
            "exec.parallel", "ignoring invalid WIMI_THREADS",
            obs::kv("value", env_value),
            obs::kv("fallback", hardware_threads()));
        return hardware_threads();
    }
    const std::size_t cap = max_thread_env();
    if (*parsed > cap) {
        WIMI_OBS_LOG_WARN(
            "exec.parallel", "clamping WIMI_THREADS to 4x hardware",
            obs::kv("value", env_value), obs::kv("cap", cap));
        return cap;
    }
    return *parsed;
}

std::size_t default_thread_count() {
    static const std::size_t count =
        resolve_thread_count(std::getenv("WIMI_THREADS"));
    return count;
}

std::size_t thread_count() {
    return acquire_pool()->thread_count();
}

void set_thread_count(std::size_t threads) {
    auto pool = std::make_shared<ThreadPool>(
        threads == 0 ? default_thread_count() : threads);
    const std::lock_guard<std::mutex> lock(g_pool_mutex);
    obs::registry();
    pool_slot() = std::move(pool);
}

void warm_pool() {
    const auto pool = acquire_pool();
    const std::size_t width = pool->thread_count();
    if (width <= 1) {
        return;  // pool of 1 has no workers to warm
    }
    // Two trivial tasks per thread: enough that every worker wakes at
    // least once even under uneven claiming, few enough to be instant.
    pool->parallel_for(2 * width, [](std::size_t) {});
}

namespace {

/// The metrics-instrumented dispatch shared by both context paths.
void dispatch(const std::shared_ptr<ThreadPool>& pool, std::size_t n,
              const std::function<void(std::size_t)>& body,
              const ExecOptions& options) {
    if (!(WIMI_OBS_ENABLED() && options.label != nullptr)) {
        pool->parallel_for(n, body, options.threads);
        return;
    }

    // Labeled region: record wall time of the whole fan-out and the sum
    // of per-task durations. cpu_us / wall_us ~ achieved speedup.
    std::atomic<double> task_us_total{0.0};
    const auto timed_body = [&](std::size_t i) {
        const auto start = std::chrono::steady_clock::now();
        body(i);
        const std::chrono::duration<double, std::micro> elapsed =
            std::chrono::steady_clock::now() - start;
        double expected = task_us_total.load(std::memory_order_relaxed);
        while (!task_us_total.compare_exchange_weak(
            expected, expected + elapsed.count(),
            std::memory_order_relaxed)) {
        }
    };

    const auto region_start = std::chrono::steady_clock::now();
    pool->parallel_for(n, timed_body, options.threads);
    const std::chrono::duration<double, std::micro> wall =
        std::chrono::steady_clock::now() - region_start;

    const std::string prefix = std::string("exec.") + options.label;
    WIMI_OBS_HISTOGRAM(prefix + ".wall_us", wall.count());
    WIMI_OBS_HISTOGRAM(prefix + ".cpu_us",
                       task_us_total.load(std::memory_order_relaxed));
}

}  // namespace

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body,
                  const ExecOptions& options) {
    if (n == 0) {
        return;
    }
    WIMI_OBS_COUNT("exec.tasks", n);

    const auto pool = acquire_pool();

    if (obs::enabled()) {
        // Capture the submitting thread's causal context once per fan-out
        // and install a copy around every task, so spans opened inside
        // pool workers resolve to the submitting span as parent and log
        // lines from workers carry the originating trace id. The caller
        // participates in its own region; re-installing its own context
        // there is a no-op.
        const obs::ObsContext submit_ctx = obs::current_context();
        const std::function<void(std::size_t)> propagated =
            [&body, &submit_ctx](std::size_t i) {
                const obs::ScopedObsContext scope(submit_ctx);
                body(i);
            };
        dispatch(pool, n, propagated, options);
        return;
    }
    dispatch(pool, n, body, options);
}

}  // namespace wimi::exec
