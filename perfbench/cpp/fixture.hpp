// Inputs of every workload, simulated with sim::Scenario from the
// workload seed: the trained model and the captures the workloads send.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "csi/frame.hpp"
#include "ml/dataset.hpp"
#include "obs/metrics.hpp"
#include "rf/material.hpp"
#include "serve/model.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

/// The model of every workload: the paper's ten liquids, so the SVM runs
/// all 45 one-vs-one machines.
struct Fixture {
    wimi::sim::ScenarioConfig scenario;
    wimi::serve::TrainedModel model;
    /// Training feature rows (the stream workload's PSI reference).
    wimi::ml::Dataset training;
};

Fixture train_fixture(std::uint64_t seed);

/// Pauses observability while the benchmark simulates its inputs, and
/// restores it when it goes out of scope. With obs on, every
/// csi::CaptureSimulator::capture passes its frames to
/// csi::record_signal_quality, which throws "zero amplitude in ratio
/// denominator" when a quantised cell of subcarrier 0 reads exactly 0.
/// The long stream_tail captures of some seeds (159, 260) hold such a
/// cell. The frames simulated are the same either way; the measured
/// paths run with obs as it was.
class SimulationScope {
public:
    SimulationScope() : was_on_(wimi::obs::enabled()) {
        wimi::obs::set_enabled(false);
    }
    ~SimulationScope() { wimi::obs::set_enabled(was_on_); }
    SimulationScope(const SimulationScope&) = delete;
    SimulationScope& operator=(const SimulationScope&) = delete;

private:
    bool was_on_;
};

/// One (baseline, target) measurement and the liquid poured for it.
struct Pair {
    wimi::csi::CsiSeries baseline;
    wimi::csi::CsiSeries target;
    wimi::rf::Liquid liquid = wimi::rf::Liquid::kPureWater;
};

/// `count` measurements, each with its own baseline (record empty, pour,
/// record again), cycling the ten liquids in a seeded order.
std::vector<Pair> make_pairs(const wimi::sim::Scenario& scenario,
                             std::uint64_t seed, std::size_t count);

/// Fixed sensors: each keeps one empty-beaker baseline from its own
/// capture session and then records `targets_per_sensor` fresh targets.
/// Result index = sensor * targets_per_sensor + k; every pair of one
/// sensor shares the same baseline.
std::vector<Pair> make_sensor_pairs(const wimi::sim::Scenario& scenario,
                                    std::uint64_t seed, std::size_t sensors,
                                    std::size_t targets_per_sensor);

/// Serialises a series as an in-memory WCSI v2 container.
std::string to_wcsi(const wimi::csi::CsiSeries& series);

}  // namespace perfbench
