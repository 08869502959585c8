#include "rf/environment.hpp"

#include <array>

#include "common/error.hpp"

namespace wimi::rf {
namespace {

// Values chosen to bracket reported indoor channel measurements: an empty
// hall behaves nearly free-space (high K, few reflectors); a cluttered
// library has dense shelving (low K, many reflectors, long delay spread).
constexpr std::array<EnvironmentSpec, 3> kSpecs = {{
    {"Hall", 3, 30.0, 30e-9, 0.5, -31.0},
    {"Lab", 7, 28.0, 60e-9, 0.5, -30.0},
    {"Library", 14, 24.0, 90e-9, 0.5, -27.0},
}};

}  // namespace

const EnvironmentSpec& environment_spec(Environment environment) {
    const auto index = static_cast<std::size_t>(environment);
    ensure(index < kSpecs.size(), "environment_spec: unknown environment");
    return kSpecs[index];
}

std::string_view environment_name(Environment environment) {
    return environment_spec(environment).name;
}

Environment parse_environment(std::string_view name) {
    if (name == "hall") {
        return Environment::kHall;
    }
    if (name == "lab") {
        return Environment::kLab;
    }
    if (name == "library") {
        return Environment::kLibrary;
    }
    fail("unknown environment (use hall | lab | library)");
}

}  // namespace wimi::rf
