#include "dsp/wavelet_denoise.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "dsp/stats.hpp"
#include "dsp/wavelet.hpp"
#include "simd/kernels.hpp"

namespace wimi::dsp {
namespace {

double power(std::span<const double> v) { return simd::sum_squares(v); }

/// Both denoisers estimate the noise floor with robust_sigma, which
/// rejects non-finite input deep inside the median computation. Checking
/// at the entry point turns that into an error naming the caller instead
/// of an opaque "median: ..." failure from inside the decomposition.
void ensure_all_finite(std::span<const double> values, const char* what) {
    if (!simd::all_finite(values)) {
        fail(std::string(what) + ": input contains a non-finite value");
    }
}

}  // namespace

void WaveletDenoiseScratch::reserve(std::size_t samples,
                                    std::size_t levels) {
    planes.details.resize(levels);
    for (auto& plane : planes.details) {
        plane.reserve(samples);
    }
    planes.approx.reserve(samples);
    correlation.reserve(samples);
    sorted.reserve(samples);
    deviations.reserve(samples);
}

std::vector<double> wavelet_correlation_denoise(
    std::span<const double> input, const WaveletDenoiseConfig& config,
    WaveletDenoiseReport* report) {
    WaveletDenoiseScratch scratch;
    std::vector<double> output(input.size());
    wavelet_correlation_denoise(input, output, config, scratch, report);
    return output;
}

void wavelet_correlation_denoise(std::span<const double> input,
                                 std::span<double> output,
                                 const WaveletDenoiseConfig& config,
                                 WaveletDenoiseScratch& scratch,
                                 WaveletDenoiseReport* report) {
    ensure(input.size() >= 8,
           "wavelet_correlation_denoise: need at least 8 samples");
    ensure(config.levels >= 2,
           "wavelet_correlation_denoise: need at least 2 scales to "
           "correlate adjacent scales");
    ensure(output.size() == input.size(),
           "wavelet_correlation_denoise: output size differs from input "
           "size");
    ensure_all_finite(input, "wavelet_correlation_denoise");

    // Decomposing copies `input`, so `output` may alias it from here on.
    AtrousDecomposition& decomposition = scratch.planes;
    atrous_decompose(input, config.levels, decomposition);
    const std::size_t n = input.size();
    const std::size_t levels = config.levels;

    if (report != nullptr) {
        report->iterations_per_scale.assign(levels, 0);
        report->residual_power_per_scale.assign(levels, 0.0);
        report->noise_threshold_per_scale.assign(levels, 0.0);
    }

    // An impulse concentrates aligned, large coefficients at the same
    // position on adjacent scales, so its normalized cross-scale
    // correlation (Eq. 12) dominates its magnitude; stationary CSI
    // amplitude structure and uncorrelated measurement noise do not.
    // Impulse coefficients are zeroed in place (the paper's stage-2 goal
    // is impulse removal), and the clean series is rebuilt from what
    // remains.
    std::vector<double>& corr = scratch.correlation;
    corr.resize(n);
    for (std::size_t l = 0; l < levels; ++l) {
        auto& w_l = decomposition.details[l];
        // The scale adjacent to the coarsest detail plane is the smooth
        // approximation — its structure still tracks the true signal.
        const std::vector<double>& w_next = (l + 1 < levels)
                                                ? decomposition.details[l + 1]
                                                : decomposition.approx;

        // Robust noise power at this scale: sigma_hat from the median of
        // |coefficients| (Donoho–Johnstone via the paper's ref. [24]).
        const double sigma_hat =
            robust_sigma(w_l, scratch.sorted, scratch.deviations);
        const double noise_power = config.noise_threshold_scale *
                                   static_cast<double>(n) * sigma_hat *
                                   sigma_hat;
        if (report != nullptr) {
            report->noise_threshold_per_scale[l] = noise_power;
        }

        std::size_t iterations = 0;
        while (power(w_l) > noise_power &&
               iterations < config.max_iterations) {
            ++iterations;
            // Eq. 11: element-wise product of adjacent scales.
            simd::multiply(w_l, w_next, corr);
            const double p_w = power(w_l);
            const double p_corr = power(corr);
            if (p_corr <= 0.0) {
                break;
            }
            // Eq. 12: rescale the correlation plane to the power of the
            // coefficient plane so magnitudes are comparable. Eq. 13: a
            // dominant normalized correlation marks a sharp cross-scale-
            // aligned transient — an impulse sample. Zero it out of the
            // working plane so the next pass re-examines the rest with
            // the impulse energy gone.
            const double scale = std::sqrt(p_w / p_corr);
            if (simd::zero_dominated(corr, scale, w_l) == 0) {
                break;
            }
        }
        if (report != nullptr) {
            report->iterations_per_scale[l] = iterations;
            report->residual_power_per_scale[l] = power(w_l);
        }
    }

    // Reconstruct from the residual planes (impulse coefficients removed)
    // plus the smooth approximation.
    atrous_reconstruct(decomposition, output);
}

std::vector<double> universal_threshold_denoise(std::span<const double> input,
                                                std::size_t levels) {
    ensure(input.size() >= 8,
           "universal_threshold_denoise: need at least 8 samples");
    ensure_all_finite(input, "universal_threshold_denoise");
    const std::size_t usable =
        std::min(levels, max_dwt_levels(input.size() + input.size() % 2,
                                        Wavelet::kDb2));
    ensure(usable >= 1,
           "universal_threshold_denoise: input too short for one level");

    auto decomposition = dwt(input, Wavelet::kDb2, usable);
    // Noise sigma from the finest detail scale, where signal energy is
    // minimal for smooth underlying series.
    const double sigma = robust_sigma(decomposition.details.front());
    const double threshold =
        sigma * std::sqrt(2.0 * std::log(static_cast<double>(input.size())));
    for (auto& level : decomposition.details) {
        for (double& w : level) {
            const double mag = std::abs(w);
            w = (mag <= threshold) ? 0.0
                                   : std::copysign(mag - threshold, w);
        }
    }
    return idwt(decomposition);
}

}  // namespace wimi::dsp
