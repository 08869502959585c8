// Tests for the size-independent material feature (paper Sec. III-D/E).
#include "core/material_feature.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "pipeline_test_util.hpp"

namespace wimi::core {
namespace {

using testutil::synthetic_series;

// Builds a synthetic baseline/target pair where each antenna's channel is
// multiplied by exp(-(alpha + j beta) * d[a]) when the target appears —
// the exact model of paper Eq. 14-17.
struct SyntheticTarget {
    csi::CsiSeries baseline;
    csi::CsiSeries target;
};

SyntheticTarget make_target(double alpha, double beta,
                            std::vector<double> depths,
                            std::size_t packets = 32) {
    std::vector<double> base_amps(depths.size(), 1.0);
    std::vector<double> base_phases(depths.size(), 0.3);
    SyntheticTarget out;
    out.baseline =
        synthetic_series(base_amps, base_phases, packets, 0.0, 0.0, 2);
    std::vector<double> amps;
    std::vector<double> phases;
    for (std::size_t a = 0; a < depths.size(); ++a) {
        amps.push_back(std::exp(-alpha * depths[a]));
        phases.push_back(0.3 - beta * depths[a]);
    }
    out.target = synthetic_series(amps, phases, packets, 0.0, 0.0, 3);
    return out;
}

// A material with Omega = alpha/beta in our negated-sign convention.
constexpr double kAlpha = 120.0;
constexpr double kBeta = 850.0;
constexpr double kExpectedOmega = kAlpha / kBeta;

TEST(EstimateGamma, ZeroForUnwrappedMeasurement) {
    // DeltaTheta = -1.0 rad, DeltaPsi consistent with |Omega| ~ 0.14.
    const double delta_psi = std::exp(-0.141);
    EXPECT_EQ(estimate_gamma(-1.0, delta_psi, {}), 0);
}

TEST(EstimateGamma, RecoversNegativeWrap) {
    // True phase -7.5 rad wraps to -7.5 + 2 pi = -1.217; amplitude implies
    // |Omega| = 1.05/7.5 = 0.14, which only gamma = -1 makes admissible.
    const double delta_psi = std::exp(-1.05);
    EXPECT_EQ(estimate_gamma(-7.5 + kTwoPi, delta_psi, {}), -1);
}

TEST(EstimateGamma, LosslessMaterialStaysZero) {
    EXPECT_EQ(estimate_gamma(-2.0, 1.0, {}), 0);
}

TEST(EstimateGamma, RespectsMaxWraps) {
    GammaConfig config;
    config.max_wraps = 0;
    const double delta_psi = std::exp(-1.05);
    EXPECT_EQ(estimate_gamma(-7.5 + kTwoPi, delta_psi, config), 0);
}

TEST(EstimateGamma, Validation) {
    EXPECT_THROW(estimate_gamma(0.0, -1.0, {}), Error);
    GammaConfig bad;
    bad.max_wraps = -1;
    EXPECT_THROW(estimate_gamma(0.0, 1.0, bad), Error);
}

TEST(MeasureMaterial, RecoversPhaseAndAmplitudeChanges) {
    const auto t = make_target(kAlpha, kBeta, {0.0021, 0.0009});
    const auto m =
        measure_material(t.baseline, t.target, {0, 1}, 4, {});
    const double depth_diff = 0.0021 - 0.0009;
    EXPECT_NEAR(m.delta_theta_rad, -kBeta * depth_diff, 1e-9);
    EXPECT_NEAR(m.delta_psi, std::exp(-kAlpha * depth_diff), 1e-9);
    EXPECT_EQ(m.gamma, 0);
    // |DeltaTheta| ~ 1.02 >> ridge 0.12: Omega ~ Eq. 21 within ~2%.
    EXPECT_NEAR(m.omega, kExpectedOmega, 0.02 * std::abs(kExpectedOmega));
}

TEST(MeasureMaterial, FeatureIndependentOfTargetSize) {
    // Same material, different "beaker sizes" (depth pairs): Omega agrees.
    const auto small = make_target(kAlpha, kBeta, {0.0012, 0.0004});
    const auto large = make_target(kAlpha, kBeta, {0.0028, 0.0013});
    const auto m_small =
        measure_material(small.baseline, small.target, {0, 1}, 0, {});
    const auto m_large =
        measure_material(large.baseline, large.target, {0, 1}, 0, {});
    // Depth differences differ by ~2x, features by a few percent (ridge).
    EXPECT_NE(m_small.delta_theta_rad, m_large.delta_theta_rad);
    EXPECT_NEAR(m_small.omega, m_large.omega,
                0.05 * std::abs(m_large.omega));
}

TEST(MeasureMaterial, DistinguishesMaterials) {
    const std::vector<double> depths = {0.0022, 0.0010};
    const auto water = make_target(120.0, 850.0, depths);
    const auto honey = make_target(123.0, 230.0, depths);
    const auto m_water =
        measure_material(water.baseline, water.target, {0, 1}, 0, {});
    const auto m_honey =
        measure_material(honey.baseline, honey.target, {0, 1}, 0, {});
    EXPECT_GT(m_honey.omega, m_water.omega);  // larger feature
}

TEST(MeasureMaterial, ToleratesNoise) {
    std::vector<double> amps = {std::exp(-kAlpha * 0.0021),
                                std::exp(-kAlpha * 0.0009)};
    std::vector<double> phases = {0.3 - kBeta * 0.0021,
                                  0.3 - kBeta * 0.0009};
    SyntheticTarget t;
    t.baseline = synthetic_series({1.0, 1.0}, {0.3, 0.3}, 256, 0.02, 0.02,
                                  5);
    t.target = synthetic_series(amps, phases, 256, 0.02, 0.02, 6);
    const auto m = measure_material(t.baseline, t.target, {0, 1}, 0, {});
    EXPECT_NEAR(m.omega, kExpectedOmega, 0.25 * std::abs(kExpectedOmega));
}

TEST(MeasureMaterialPairs, CrossPairWrapRecovery) {
    // Three antennas: depths chosen so the wide pair's phase change is
    // -7.48 rad (wrapped) while the reference pair stays unwrapped.
    const std::vector<double> depths = {0.0098, 0.0078, 0.0010};
    const auto t = make_target(kAlpha, kBeta, depths);
    const std::vector<AntennaPair> pairs = {{0, 1}, {0, 2}};
    const auto ms =
        measure_material_pairs(t.baseline, t.target, pairs, 0, {});
    ASSERT_EQ(ms.size(), 2u);
    // Reference: depth diff 0.002 -> -1.7 rad, no wrap.
    EXPECT_EQ(ms[0].gamma, 0);
    EXPECT_NEAR(ms[0].omega, kExpectedOmega,
                0.02 * std::abs(kExpectedOmega));
    // Wide pair: depth diff 0.0088 -> -7.48 rad -> wrapped once.
    EXPECT_EQ(ms[1].gamma, -1);
    EXPECT_NEAR(ms[1].omega, kExpectedOmega,
                0.02 * std::abs(kExpectedOmega));
}

TEST(MeasureMaterialPairs, LossFreeReferenceKeepsGammaZero) {
    // Near-lossless material: amplitude carries no wrap information, so
    // wide-pair gamma stays 0 (and the phases do not wrap either).
    const auto t = make_target(0.5, 60.0, {0.009, 0.007, 0.001});
    const std::vector<AntennaPair> pairs = {{0, 1}, {0, 2}};
    const auto ms =
        measure_material_pairs(t.baseline, t.target, pairs, 0, {});
    EXPECT_EQ(ms[1].gamma, 0);
}

TEST(ExtractFeatureVector, LayoutAndContent) {
    const auto t = make_target(kAlpha, kBeta, {0.0021, 0.0009});
    const std::vector<AntennaPair> pairs = {{0, 1}};
    const std::vector<std::size_t> subcarriers = {0, 7, 13};
    const auto features = extract_feature_vector(t.baseline, t.target,
                                                 pairs, subcarriers, {});
    ASSERT_EQ(features.size(), 3u);
    for (const double f : features) {
        EXPECT_NEAR(f, kExpectedOmega, 0.02 * std::abs(kExpectedOmega));
    }
}

TEST(ExtractFeatureVector, Validation) {
    const auto t = make_target(kAlpha, kBeta, {0.002, 0.001});
    EXPECT_THROW(
        extract_feature_vector(t.baseline, t.target, {}, {0}, {}), Error);
    EXPECT_THROW(extract_feature_vector(t.baseline, t.target, {{0, 1}}, {},
                                        {}),
                 Error);
    const csi::CsiSeries empty;
    EXPECT_THROW(measure_material(empty, t.target, {0, 1}, 0, {}), Error);
}

// --- BaselineProfile: the baseline half computed once --------------------

void expect_bit_identical(const std::vector<double>& actual,
                          const std::vector<double>& expected) {
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[i]),
                  std::bit_cast<std::uint64_t>(expected[i]))
            << "feature " << i;
    }
}

const std::vector<AntennaPair> kProfilePairs = {{0, 1}, {0, 2}, {1, 2}};
const std::vector<std::size_t> kProfileSubcarriers = {0, 5, 11, 29};

/// Noisy three-antenna captures, with impulse-like amplitude outliers so
/// the outlier mask and the wavelet pass both have work to do.
SyntheticTarget noisy_target(std::size_t baseline_packets,
                             std::size_t target_packets) {
    SyntheticTarget t;
    t.baseline = synthetic_series({1.0, 0.9, 1.1}, {0.3, 0.1, -0.2},
                                  baseline_packets, 0.03, 0.03, 11);
    t.target = synthetic_series({0.6, 0.7, 0.85}, {-1.2, -0.6, -0.4},
                                target_packets, 0.03, 0.03, 12);
    for (auto* series : {&t.baseline, &t.target}) {
        for (std::size_t m = 3; m < series->packet_count(); m += 7) {
            for (std::size_t k = 0; k < series->subcarrier_count(); ++k) {
                series->frames[m].at(m % 3, k) *= 4.0;
            }
        }
    }
    return t;
}

/// The profile overload against every (baseline, target) wrapper:
/// series and SoA extract_feature_vector, and per-subcarrier
/// measure_material_pairs. All must agree bit for bit.
void expect_profile_parity(const SyntheticTarget& t,
                           const FeatureConfig& config) {
    const csi::CsiSoa baseline_soa(t.baseline);
    const csi::CsiSoa target_soa(t.target);
    const BaselineProfile profile(baseline_soa, kProfilePairs,
                                  kProfileSubcarriers, config);
    const std::vector<double> from_profile =
        extract_feature_vector(profile, target_soa);
    ASSERT_EQ(from_profile.size(),
              kProfilePairs.size() * kProfileSubcarriers.size());
    expect_bit_identical(
        from_profile,
        extract_feature_vector(t.baseline, t.target, kProfilePairs,
                               kProfileSubcarriers, config));
    expect_bit_identical(
        from_profile,
        extract_feature_vector(baseline_soa, target_soa, kProfilePairs,
                               kProfileSubcarriers, config));
    std::vector<double> per_subcarrier;
    for (const std::size_t sc : kProfileSubcarriers) {
        for (const MaterialMeasurement& m : measure_material_pairs(
                 t.baseline, t.target, kProfilePairs, sc, config)) {
            per_subcarrier.push_back(m.omega);
        }
    }
    expect_bit_identical(from_profile, per_subcarrier);
    // A single-pair profile is measure_material.
    expect_bit_identical(
        {extract_feature_vector(
             BaselineProfile(baseline_soa, {kProfilePairs.front()},
                             {kProfileSubcarriers.back()}, config),
             target_soa)
             .front()},
        {measure_material(t.baseline, t.target, kProfilePairs.front(),
                          kProfileSubcarriers.back(), config)
             .omega});
}

TEST(BaselineProfile, DefaultConfigMatchesEveryWrapper) {
    expect_profile_parity(noisy_target(40, 64), {});
}

TEST(BaselineProfile, DenoisingOffMatchesEveryWrapper) {
    FeatureConfig config;
    config.use_amplitude_denoising = false;
    expect_profile_parity(noisy_target(40, 64), config);
}

TEST(BaselineProfile, ImpulseRemovalOffMatchesEveryWrapper) {
    FeatureConfig config;
    config.denoise.remove_impulses = false;
    expect_profile_parity(noisy_target(40, 64), config);
}

TEST(BaselineProfile, ShortBaselineSkipsWaveletAndMatches) {
    // Fewer than 8 baseline packets: the baseline half runs no wavelet
    // pass while the target half does.
    expect_profile_parity(noisy_target(5, 64), {});
}

TEST(BaselineProfile, AllOutlierBaselineFallsBackAndMatches) {
    // Two amplitude levels in equal measure put every packet exactly one
    // sigma from the mean, so a 0.5-sigma gate flags them all and the
    // ratio falls back to the unmasked series.
    SyntheticTarget t = noisy_target(40, 64);
    t.baseline = synthetic_series({1.0, 0.9, 1.1}, {0.3, 0.1, -0.2}, 40);
    for (std::size_t m = 0; m < t.baseline.packet_count(); m += 2) {
        for (std::size_t k = 0; k < t.baseline.subcarrier_count(); ++k) {
            t.baseline.frames[m].at(0, k) *= 1.5;
            t.baseline.frames[m].at(1, k) *= 1.5;
            t.baseline.frames[m].at(2, k) *= 1.5;
        }
    }
    FeatureConfig config;
    config.denoise.outlier_k_sigma = 0.5;
    expect_profile_parity(t, config);
}

TEST(BaselineProfile, HoldsOneRatioPerCellInExtractOrder) {
    const SyntheticTarget t = noisy_target(40, 64);
    const BaselineProfile profile(csi::CsiSoa(t.baseline), kProfilePairs,
                                  kProfileSubcarriers, {});
    EXPECT_EQ(profile.ratios().size(),
              kProfilePairs.size() * kProfileSubcarriers.size());
    EXPECT_EQ(profile.antenna_count(), 3u);
    EXPECT_EQ(profile.subcarrier_count(), t.baseline.subcarrier_count());
    // Subcarrier-major: a one-subcarrier profile's ratios are the row of
    // the full profile for that subcarrier.
    const BaselineProfile row(csi::CsiSoa(t.baseline), kProfilePairs,
                              {kProfileSubcarriers[2]}, {});
    for (std::size_t p = 0; p < kProfilePairs.size(); ++p) {
        EXPECT_EQ(row.ratios()[p],
                  profile.ratios()[2 * kProfilePairs.size() + p]);
    }
}

TEST(BaselineProfile, RejectsTargetOfOtherDimensions) {
    const SyntheticTarget t = noisy_target(40, 64);
    const BaselineProfile profile(csi::CsiSoa(t.baseline), {{0, 1}}, {0},
                                  {});
    const csi::CsiSeries two_antennas =
        synthetic_series({1.0, 0.9}, {0.3, 0.1}, 32);
    EXPECT_THROW(extract_feature_vector(profile, csi::CsiSoa(two_antennas)),
                 Error);
    const csi::CsiSeries fewer_subcarriers = synthetic_series(
        {1.0, 0.9, 1.1}, {0.3, 0.1, -0.2}, 32, 0.0, 0.0, 1, 20);
    EXPECT_THROW(
        extract_feature_vector(profile, csi::CsiSoa(fewer_subcarriers)),
        Error);
}

TEST(BaselineProfile, ValidatesItsBaselineAndSelection) {
    const SyntheticTarget t = noisy_target(40, 64);
    const csi::CsiSoa baseline(t.baseline);
    EXPECT_THROW(BaselineProfile(baseline, {}, {0}, {}), Error);
    EXPECT_THROW(BaselineProfile(baseline, {{0, 1}}, {}, {}), Error);
    EXPECT_THROW(BaselineProfile(baseline, {{0, 3}}, {0}, {}), Error);
    EXPECT_THROW(BaselineProfile(baseline, {{0, 1}}, {30}, {}), Error);
    // A baseline whose denominator antenna is dead at every packet has no
    // usable ratio.
    csi::CsiSeries dead = t.baseline;
    for (auto& frame : dead.frames) {
        frame.at(1, 0) = Complex(0.0, 0.0);
    }
    EXPECT_THROW(BaselineProfile(csi::CsiSoa(dead), {{0, 1}}, {0}, {}),
                 Error);
    // A dead numerator antenna leaves a zero stable ratio, which the
    // profile rejects when it is built rather than per target.
    try {
        BaselineProfile(csi::CsiSoa(dead), {{1, 0}}, {0}, {});
        FAIL() << "zero baseline ratio accepted";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("zero baseline antenna ratio"),
                  std::string::npos)
            << e.what();
    }
}

// Property: the feature is invariant under a global amplitude scale
// (receiver gain) and a global phase rotation (CFO) applied to both
// captures.
class FeatureInvariance : public ::testing::TestWithParam<double> {};

TEST_P(FeatureInvariance, GainAndPhaseInvariant) {
    const double scale = GetParam();
    auto t = make_target(kAlpha, kBeta, {0.0021, 0.0009});
    const auto reference =
        measure_material(t.baseline, t.target, {0, 1}, 0, {});
    for (auto* series : {&t.baseline, &t.target}) {
        for (auto& frame : series->frames) {
            for (Complex& h : frame.raw()) {
                h *= scale * std::exp(Complex(0.0, 0.77));
            }
        }
    }
    const auto transformed =
        measure_material(t.baseline, t.target, {0, 1}, 0, {});
    EXPECT_NEAR(transformed.omega, reference.omega, 1e-9);
    EXPECT_NEAR(transformed.delta_theta_rad, reference.delta_theta_rad,
                1e-9);
}

INSTANTIATE_TEST_SUITE_P(Scales, FeatureInvariance,
                         ::testing::Values(0.1, 0.5, 2.0, 10.0));

}  // namespace
}  // namespace wimi::core
