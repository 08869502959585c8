// Tests for the spatially-selective wavelet-correlation denoiser
// (paper Sec. III-C, Eq. 8-13).
#include "dsp/wavelet_denoise.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/stats.hpp"

namespace wimi::dsp {
namespace {

// A slow drift plus plateau, resembling a CSI amplitude series.
std::vector<double> smooth_signal(std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = 10.0 + std::sin(2.0 * M_PI * static_cast<double>(i) /
                               static_cast<double>(n));
    }
    return v;
}

std::vector<double> add_impulses(std::vector<double> v, double magnitude,
                                 std::uint64_t seed, double probability) {
    Rng rng(seed);
    for (double& x : v) {
        if (rng.bernoulli(probability)) {
            x += (rng.bernoulli(0.5) ? 1.0 : -1.0) * magnitude;
        }
    }
    return v;
}

TEST(WaveletDenoise, ReducesImpulseError) {
    const auto clean = smooth_signal(256);
    const auto noisy = add_impulses(clean, 8.0, 11, 0.05);
    const auto denoised = wavelet_correlation_denoise(noisy);
    ASSERT_EQ(denoised.size(), clean.size());
    EXPECT_LT(rmse(denoised, clean), 0.5 * rmse(noisy, clean));
}

TEST(WaveletDenoise, NearlyPreservesCleanSignal) {
    const auto clean = smooth_signal(256);
    const auto denoised = wavelet_correlation_denoise(clean);
    EXPECT_LT(rmse(denoised, clean), 0.05);
}

TEST(WaveletDenoise, PreservesMeanLevel) {
    const auto clean = smooth_signal(128);
    const auto noisy = add_impulses(clean, 10.0, 13, 0.04);
    const auto denoised = wavelet_correlation_denoise(noisy);
    EXPECT_NEAR(mean(denoised), mean(clean), 0.3);
}

TEST(WaveletDenoise, ReportIsFilled) {
    const auto noisy = add_impulses(smooth_signal(128), 6.0, 17, 0.06);
    WaveletDenoiseConfig config;
    config.levels = 4;
    WaveletDenoiseReport report;
    wavelet_correlation_denoise(noisy, config, &report);
    ASSERT_EQ(report.iterations_per_scale.size(), 4u);
    ASSERT_EQ(report.residual_power_per_scale.size(), 4u);
    ASSERT_EQ(report.noise_threshold_per_scale.size(), 4u);
    for (const double t : report.noise_threshold_per_scale) {
        EXPECT_GE(t, 0.0);
    }
    // At least one scale must have iterated on impulse-laden data.
    std::size_t total_iterations = 0;
    for (const std::size_t it : report.iterations_per_scale) {
        total_iterations += it;
    }
    EXPECT_GT(total_iterations, 0u);
}

TEST(WaveletDenoise, IterationsBounded) {
    const auto noisy = add_impulses(smooth_signal(512), 20.0, 19, 0.2);
    WaveletDenoiseConfig config;
    config.max_iterations = 5;
    WaveletDenoiseReport report;
    wavelet_correlation_denoise(noisy, config, &report);
    for (const std::size_t it : report.iterations_per_scale) {
        EXPECT_LE(it, 5u);
    }
}

TEST(WaveletDenoise, Validation) {
    const std::vector<double> tiny = {1.0, 2.0, 3.0};
    EXPECT_THROW(wavelet_correlation_denoise(tiny), Error);
    const auto x = smooth_signal(64);
    WaveletDenoiseConfig config;
    config.levels = 1;  // needs >= 2 scales for adjacent correlation
    EXPECT_THROW(wavelet_correlation_denoise(x, config), Error);
}

TEST(WaveletDenoise, BeatsNothingOnGaussianPlusImpulse) {
    Rng rng(23);
    auto clean = smooth_signal(400);
    auto noisy = clean;
    for (double& x : noisy) {
        x += rng.gaussian(0.0, 0.1);
    }
    noisy = add_impulses(noisy, 5.0, 29, 0.05);
    const auto denoised = wavelet_correlation_denoise(noisy);
    EXPECT_LT(rmse(denoised, clean), rmse(noisy, clean));
}

TEST(UniversalThreshold, RemovesGaussianNoise) {
    Rng rng(31);
    const auto clean = smooth_signal(256);
    auto noisy = clean;
    for (double& x : noisy) {
        x += rng.gaussian(0.0, 0.3);
    }
    const auto denoised = universal_threshold_denoise(noisy, 3);
    ASSERT_EQ(denoised.size(), clean.size());
    EXPECT_LT(rmse(denoised, clean), rmse(noisy, clean));
}

TEST(UniversalThreshold, Validation) {
    const std::vector<double> tiny = {1.0, 2.0};
    EXPECT_THROW(universal_threshold_denoise(tiny, 2), Error);
}

// Property: denoising never changes the series length and output stays
// within a generous envelope of the input range.
class DenoiseProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DenoiseProperty, OutputBounded) {
    Rng rng(GetParam());
    std::vector<double> v;
    const std::size_t n = 32 + rng.uniform_index(300);
    for (std::size_t i = 0; i < n; ++i) {
        v.push_back(rng.uniform(0.0, 10.0));
    }
    const auto out = wavelet_correlation_denoise(v);
    ASSERT_EQ(out.size(), v.size());
    for (const double x : out) {
        EXPECT_GT(x, -20.0);
        EXPECT_LT(x, 30.0);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomSeries, DenoiseProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(DenoiseEdgeCases, NonFiniteInputRejected) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad : {nan, inf, -inf}) {
        std::vector<double> v(32, 1.0);
        v[13] = bad;
        EXPECT_THROW(wavelet_correlation_denoise(v), Error);
        EXPECT_THROW(universal_threshold_denoise(v, 2), Error);
    }
}

TEST(DenoiseEdgeCases, ConstantInputReconstructsExactly) {
    // A flat series has zero detail energy at every scale, so both
    // denoisers should return it (numerically) unchanged.
    const std::vector<double> flat(64, 5.0);
    const auto corr = wavelet_correlation_denoise(flat);
    ASSERT_EQ(corr.size(), flat.size());
    for (const double x : corr) {
        EXPECT_NEAR(x, 5.0, 1e-9);
    }
    const auto soft = universal_threshold_denoise(flat, 3);
    ASSERT_EQ(soft.size(), flat.size());
    for (const double x : soft) {
        EXPECT_NEAR(x, 5.0, 1e-9);
    }
}

TEST(DenoiseEdgeCases, MinimumLengthInputDenoises) {
    const std::vector<double> eight = {1.0, 2.0, 3.0, 4.0,
                                       4.0, 3.0, 2.0, 1.0};
    const auto out = wavelet_correlation_denoise(eight);
    EXPECT_EQ(out.size(), eight.size());
    const auto soft = universal_threshold_denoise(eight, 1);
    EXPECT_EQ(soft.size(), eight.size());
}

void expect_bit_identical(const std::vector<double>& actual,
                          const std::vector<double>& expected) {
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[i]),
                  std::bit_cast<std::uint64_t>(expected[i]))
            << "sample " << i;
    }
}

TEST(DenoiseScratch, ReusedScratchMatchesFreshCallsAcrossLengths) {
    // Growing and shrinking through one scratch object: stale planes from
    // a longer series must never leak into a shorter one.
    WaveletDenoiseScratch scratch;
    std::uint64_t seed = 40;
    for (const std::size_t n : {64u, 20u, 1000u, 20u}) {
        const auto noisy =
            add_impulses(smooth_signal(n), 4.0, ++seed, 0.05);
        WaveletDenoiseReport fresh_report;
        const auto fresh =
            wavelet_correlation_denoise(noisy, {}, &fresh_report);
        WaveletDenoiseReport reused_report;
        std::vector<double> reused(n);
        wavelet_correlation_denoise(noisy, reused, {}, scratch,
                                    &reused_report);
        expect_bit_identical(reused, fresh);
        EXPECT_EQ(reused_report.iterations_per_scale,
                  fresh_report.iterations_per_scale);
        expect_bit_identical(reused_report.residual_power_per_scale,
                             fresh_report.residual_power_per_scale);
        expect_bit_identical(reused_report.noise_threshold_per_scale,
                             fresh_report.noise_threshold_per_scale);
    }
}

TEST(DenoiseScratch, InPlaceMatchesFreshCall) {
    const auto noisy = add_impulses(smooth_signal(96), 5.0, 77, 0.05);
    const auto fresh = wavelet_correlation_denoise(noisy);
    WaveletDenoiseScratch scratch;
    std::vector<double> in_place = noisy;
    wavelet_correlation_denoise(in_place, in_place, {}, scratch);
    expect_bit_identical(in_place, fresh);
}

TEST(DenoiseScratch, KeepsTheAllocatingChecks) {
    WaveletDenoiseScratch scratch;
    std::vector<double> out(32);
    const std::vector<double> short_input(7, 1.0);
    std::vector<double> short_out(7);
    EXPECT_THROW(wavelet_correlation_denoise(short_input, short_out, {},
                                             scratch),
                 Error);
    std::vector<double> v(32, 1.0);
    WaveletDenoiseConfig one_level;
    one_level.levels = 1;
    EXPECT_THROW(wavelet_correlation_denoise(v, out, one_level, scratch),
                 Error);
    std::vector<double> wrong_size(31);
    EXPECT_THROW(wavelet_correlation_denoise(v, wrong_size, {}, scratch),
                 Error);
    v[13] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(wavelet_correlation_denoise(v, out, {}, scratch), Error);
}

}  // namespace
}  // namespace wimi::dsp
