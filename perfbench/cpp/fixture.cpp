#include "fixture.hpp"

#include <sstream>

#include "common/rng.hpp"
#include "core/wimi.hpp"
#include "csi/trace_io.hpp"
#include "exec/parallel.hpp"
#include "sim/harness.hpp"

namespace perfbench {

using namespace wimi;

namespace {

// Training captures per liquid: enough for a stable ten-class model
// while keeping set-up short.
constexpr std::size_t kTrainRepetitions = 6;

rf::Liquid seeded_liquid(Rng& rng) {
    const auto liquids = rf::all_liquids();
    return liquids[rng.next_u64() % liquids.size()];
}

}  // namespace

Fixture train_fixture(std::uint64_t seed) {
    const SimulationScope simulating;
    sim::ExperimentConfig config;
    config.scenario.environment = rf::Environment::kLab;
    config.repetitions = kTrainRepetitions;
    config.seed = seed;

    Fixture fixture;
    fixture.scenario = config.scenario;
    core::Wimi wimi = sim::make_calibrated_wimi(config);
    fixture.training = sim::build_feature_dataset(config, wimi);
    for (std::size_t row = 0; row < fixture.training.size(); ++row) {
        const auto li =
            static_cast<std::size_t>(fixture.training.label(row));
        wimi.enroll_features(rf::liquid_name(config.liquids[li]),
                             fixture.training.features(row));
    }
    wimi.train();
    fixture.model = serve::snapshot_model(wimi);
    return fixture;
}

std::vector<Pair> make_pairs(const sim::Scenario& scenario,
                             std::uint64_t seed, std::size_t count) {
    const SimulationScope simulating;
    Rng rng(seed ^ 0x9A125EEDULL);
    std::vector<rf::Liquid> liquids(count);
    std::vector<std::uint64_t> sessions(count);
    for (std::size_t i = 0; i < count; ++i) {
        liquids[i] = seeded_liquid(rng);
        sessions[i] = rng.next_u64();
    }
    return exec::parallel_map<Pair>(count, [&](std::size_t i) {
        sim::MeasurementPair m =
            scenario.capture_measurement(liquids[i], sessions[i]);
        return Pair{std::move(m.baseline), std::move(m.target), liquids[i]};
    });
}

std::vector<Pair> make_sensor_pairs(const sim::Scenario& scenario,
                                    std::uint64_t seed, std::size_t sensors,
                                    std::size_t targets_per_sensor) {
    const SimulationScope simulating;
    const std::size_t packets = scenario.config().packets;
    std::vector<std::vector<Pair>> per_sensor =
        exec::parallel_map<std::vector<Pair>>(sensors, [&](std::size_t s) {
            Rng rng(seed ^ (0x5E4502ULL + s));
            csi::CaptureSimulator session =
                scenario.make_session(rng.next_u64());
            const csi::CsiSeries baseline =
                session.capture(scenario.scene(nullptr), packets);
            std::vector<Pair> pairs;
            for (std::size_t k = 0; k < targets_per_sensor; ++k) {
                const rf::Liquid liquid = seeded_liquid(rng);
                pairs.push_back(
                    {baseline,
                     session.capture(
                         scenario.scene(&rf::material_for(liquid)), packets),
                     liquid});
            }
            return pairs;
        });
    std::vector<Pair> out;
    for (std::vector<Pair>& pairs : per_sensor) {
        for (Pair& pair : pairs) {
            out.push_back(std::move(pair));
        }
    }
    return out;
}

std::string to_wcsi(const csi::CsiSeries& series) {
    std::ostringstream out(std::ios::binary);
    csi::write_trace(out, series);
    return std::move(out).str();
}

}  // namespace perfbench
