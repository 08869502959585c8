// Indoor environment presets.
//
// The paper evaluates in an empty hall, a lab office, and a library —
// explicitly chosen as low, medium and high multipath environments
// (Sec. IV). Each preset parameterizes the multipath ray population of
// rf::ChannelModel and the receiver SNR; the relative ordering of these
// parameters is what reproduces the hall > lab > library accuracy ordering
// of Fig. 17/18.
#pragma once

#include <string_view>

namespace wimi::rf {

/// The three evaluation environments.
enum class Environment {
    kHall,     ///< empty hall — low multipath
    kLab,      ///< lab office — medium multipath
    kLibrary,  ///< library — high multipath
};

/// Channel-model parameters for one environment.
struct EnvironmentSpec {
    std::string_view name;
    /// Number of significant non-LoS reflectors.
    std::size_t reflector_count = 0;
    /// Rician K factor [dB]: LoS power over total multipath power, defined
    /// at the reference link distance (2 m, the paper's default). The
    /// channel model scales the relative multipath up as the link grows —
    /// reflected paths lose little extra length when the direct path
    /// stretches, so K drops with distance (the physics behind Fig. 17).
    double rician_k_db = 0.0;
    /// RMS excess-delay spread of the reflections [s].
    double delay_spread_s = 0.0;
    /// Per-packet fractional fluctuation of each reflection (people moving,
    /// doors, HVAC): std-dev of amplitude jitter and of phase jitter/2*pi.
    double dynamic_jitter = 0.0;
    /// Receiver noise floor relative to the LoS component [dB] (negative).
    double noise_floor_dbc = -30.0;
};

/// Preset for `environment`.
const EnvironmentSpec& environment_spec(Environment environment);

/// Human-readable name ("Hall", "Lab", "Library").
std::string_view environment_name(Environment environment);

/// The environment a command line names: "hall", "lab" or "library".
/// Throws wimi::Error for anything else.
Environment parse_environment(std::string_view name);

}  // namespace wimi::rf
