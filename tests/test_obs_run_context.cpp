// Tests for run provenance (obs/run_context): the wimi.run.v1 manifest,
// config digests, and the JSON-lines run ledger.
#include "obs/run_context.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace wimi::obs {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        lines.push_back(line);
    }
    return lines;
}

TEST(RunContext, BuildInfoIsPopulated) {
    const BuildInfo info = build_info();
    EXPECT_FALSE(info.compiler.empty());
    EXPECT_TRUE(info.obs_compiled_in);
}

TEST(RunContext, ConfigDigestIsStableAndDiscriminates) {
    const std::string a = config_digest("env=lab;packets=20");
    EXPECT_EQ(a.size(), 8u);  // CRC-32 hex
    EXPECT_EQ(a, config_digest("env=lab;packets=20"));
    EXPECT_NE(a, config_digest("env=lab;packets=21"));
}

TEST(RunContext, ManifestParsesWithAllDeclaredFields) {
    MetricsRegistry reg;
    reg.counter("events").add(3);
    reg.gauge("accuracy").set(0.93);

    RunContext run("unit.test");
    run.set_seed(42);
    run.set_threads(2);
    run.set_config("env=lab;packets=20");
    run.note("environment", "Lab");
    run.note("accuracy", 0.93);

    const json::Value doc = json::parse(run.manifest_json(reg));
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(doc.find("schema")->string, "wimi.run.v1");
    EXPECT_EQ(doc.find("tool")->string, "unit.test");
    EXPECT_DOUBLE_EQ(doc.find("seed")->num, 42.0);
    EXPECT_DOUBLE_EQ(doc.find("threads")->num, 2.0);
    EXPECT_EQ(doc.find("config_digest")->string,
              config_digest("env=lab;packets=20"));
    EXPECT_GE(doc.find("hardware_threads")->num, 1.0);
    EXPECT_GT(doc.find("unix_time")->num, 0.0);
    EXPECT_GE(doc.find("wall_s")->num, 0.0);

    const json::Value* build = doc.find("build");
    ASSERT_NE(build, nullptr);
    EXPECT_NE(build->find("compiler"), nullptr);
    EXPECT_NE(build->find("obs_compiled_in"), nullptr);

    const json::Value* notes = doc.find("notes");
    ASSERT_NE(notes, nullptr);
    EXPECT_EQ(notes->find("environment")->string, "Lab");
    EXPECT_DOUBLE_EQ(notes->find("accuracy")->num, 0.93);

    // The metrics snapshot is embedded verbatim.
    const json::Value* metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(metrics->find("schema")->string, "wimi.metrics.v1");
    EXPECT_DOUBLE_EQ(metrics->find("counters")->find("events")->num, 3.0);
}

TEST(RunContext, SeedIsNullUntilSet) {
    MetricsRegistry reg;
    const RunContext run("unit.test");
    const json::Value doc = json::parse(run.manifest_json(reg));
    EXPECT_EQ(doc.find("seed")->kind, json::Value::Kind::kNull);
}

TEST(RunContext, LedgerAppendsOneLinePerRun) {
    const std::string path = testing::TempDir() + "wimi_test_ledger.jsonl";
    std::remove(path.c_str());

    MetricsRegistry reg;
    RunContext first("tool.a");
    first.set_seed(1);
    first.append_to_ledger(path, reg);
    RunContext second("tool.b");
    second.set_seed(2);
    second.append_to_ledger(path, reg);

    const std::vector<std::string> lines = read_lines(path);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(json::parse(lines[0]).find("tool")->string, "tool.a");
    EXPECT_EQ(json::parse(lines[1]).find("tool")->string, "tool.b");
    std::remove(path.c_str());
}

TEST(RunContext, DefaultLedgerPrefersEnvOverFallback) {
    const std::string env_path = testing::TempDir() + "wimi_env_ledger.jsonl";
    const std::string fallback = testing::TempDir() + "wimi_fb_ledger.jsonl";
    std::remove(env_path.c_str());
    std::remove(fallback.c_str());

    MetricsRegistry reg;
    const RunContext run("env.test");

    ASSERT_EQ(setenv("WIMI_RUN_LEDGER", env_path.c_str(), 1), 0);
    EXPECT_EQ(run.append_to_default_ledger(fallback, reg), env_path);
    unsetenv("WIMI_RUN_LEDGER");
    EXPECT_EQ(read_lines(env_path).size(), 1u);
    EXPECT_TRUE(read_lines(fallback).empty());

    // Without the env var, the fallback receives the manifest.
    EXPECT_EQ(run.append_to_default_ledger(fallback, reg), fallback);
    EXPECT_EQ(read_lines(fallback).size(), 1u);

    // No env var, no fallback: silently skipped.
    EXPECT_EQ(run.append_to_default_ledger("", reg), "");

    std::remove(env_path.c_str());
    std::remove(fallback.c_str());
}

TEST(RunContext, ExplicitLedgerFailureThrows) {
    MetricsRegistry reg;
    const RunContext run("io.fail");
    EXPECT_THROW(
        run.append_to_ledger("/nonexistent-dir/ledger.jsonl", reg), Error);
    // The never-throws variant reports the same failure as a skip.
    EXPECT_EQ(
        run.append_to_default_ledger("/nonexistent-dir/ledger.jsonl", reg),
        "");
}

}  // namespace
}  // namespace wimi::obs
