#include "core/material_feature.hpp"

#include <cmath>
#include <cstdlib>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "dsp/circular.hpp"
#include "dsp/stats.hpp"
#include "obs/obs.hpp"
#include "simd/kernels.hpp"

namespace wimi::core {
namespace {

/// Working storage of mean_complex_ratio, owned by the caller: one
/// extract call (or one profile build) makes a scratch and reuses it for
/// every (subcarrier, pair) cell it evaluates.
struct RatioScratch {
    /// Sizes every buffer for `packets`-packet series up front, so no
    /// cell of the call allocates, however many packets it masks out.
    RatioScratch(std::size_t packets, const FeatureConfig& config) {
        inlier.reserve(packets);
        for (auto* plane : {&re1, &im1, &re2, &im2, &ratio_re, &ratio_im}) {
            plane->reserve(packets);
        }
        if (config.use_amplitude_denoising &&
            config.denoise.remove_impulses) {
            wavelet.reserve(packets, config.denoise.wavelet.levels);
        }
    }

    std::vector<char> inlier;
    std::vector<double> re1;
    std::vector<double> im1;
    std::vector<double> re2;
    std::vector<double> im2;
    std::vector<double> ratio_re;
    std::vector<double> ratio_im;
    dsp::WaveletDenoiseScratch wavelet;
};

/// Coherent estimate of the stable antenna ratio at one subcarrier.
///
/// Each packet's complex ratio r_m = H_first / H_second cancels the
/// board-common phase errors of Eq. 5 (CFO, SFO, PBD) exactly, like the
/// paper's phase differencing, while keeping phase and amplitude coupled.
/// Averaging r_m *in the complex domain* then suppresses multipath
/// contributions with fluctuating phases — they average toward zero —
/// where averaging |r| and arg(r) separately would leave a multipath-
/// dependent bias on the amplitude ratio. arg() of the result is the
/// calibrated phase difference, abs() the stable amplitude ratio.
///
/// With `denoise` enabled (the pipeline default) the estimator applies the
/// paper's two cleaning stages first: packets whose amplitude is a 3-sigma
/// outlier on either antenna are dropped (impulse bursts corrupt the whole
/// complex sample), and the surviving ratio series is run through the
/// wavelet-correlation denoiser component-wise.
Complex mean_complex_ratio(const csi::CsiSoa& soa, AntennaPair pair,
                           std::size_t subcarrier,
                           const AmplitudeDenoiseConfig& denoise,
                           bool use_denoising, RatioScratch& scratch) {
    const std::size_t packets = soa.packet_count();
    std::vector<char>& mask = scratch.inlier;
    if (use_denoising) {
        inlier_packet_mask(soa, pair, subcarrier, denoise.outlier_k_sigma,
                           mask);
    } else {
        mask.assign(packets, 1);
    }
    const auto re1p = soa.real_plane(pair.first, subcarrier);
    const auto im1p = soa.imag_plane(pair.first, subcarrier);
    const auto re2p = soa.real_plane(pair.second, subcarrier);
    const auto im2p = soa.imag_plane(pair.second, subcarrier);
    // Packets whose reference-antenna CSI quantized to exactly zero (deep
    // fade at int8 resolution) carry no usable ratio and are skipped like
    // outliers.
    const auto usable = [&](std::size_t m) {
        return re2p[m] != 0.0 || im2p[m] != 0.0;
    };
    // Compact the surviving packets into contiguous component arrays so
    // the ratio kernel runs over unit-stride spans.
    std::vector<double>& re1 = scratch.re1;
    std::vector<double>& im1 = scratch.im1;
    std::vector<double>& re2 = scratch.re2;
    std::vector<double>& im2 = scratch.im2;
    re1.clear();
    im1.clear();
    re2.clear();
    im2.clear();
    const auto gather = [&](std::size_t m) {
        re1.push_back(re1p[m]);
        im1.push_back(im1p[m]);
        re2.push_back(re2p[m]);
        im2.push_back(im2p[m]);
    };
    for (std::size_t m = 0; m < packets; ++m) {
        if (mask[m] && usable(m)) {
            gather(m);
        }
    }
    // Degenerate capture where every packet was flagged: fall back to the
    // unmasked series rather than failing the measurement.
    if (re1.empty()) {
        for (std::size_t m = 0; m < packets; ++m) {
            if (usable(m)) {
                gather(m);
            }
        }
    }
    ensure(!re1.empty(),
           "mean_complex_ratio: no packet has nonzero reference amplitude");

    std::vector<double>& ratio_re = scratch.ratio_re;
    std::vector<double>& ratio_im = scratch.ratio_im;
    ratio_re.resize(re1.size());
    ratio_im.resize(re1.size());
    simd::complex_ratio(re1, im1, re2, im2, ratio_re, ratio_im);

    if (use_denoising && denoise.remove_impulses && ratio_re.size() >= 8) {
        dsp::wavelet_correlation_denoise(ratio_re, ratio_re, denoise.wavelet,
                                         scratch.wavelet);
        dsp::wavelet_correlation_denoise(ratio_im, ratio_im, denoise.wavelet,
                                         scratch.wavelet);
    }

    const double count = static_cast<double>(ratio_re.size());
    return {simd::sum(ratio_re) / count, simd::sum(ratio_im) / count};
}

}  // namespace

int estimate_gamma(double delta_theta_rad, double delta_psi,
                   const GammaConfig& config) {
    ensure(config.max_wraps >= 0, "estimate_gamma: max_wraps must be >= 0");
    ensure(delta_psi > 0.0, "estimate_gamma: delta_psi must be positive");
    const double log_psi = std::log(delta_psi);  // < 0 for attenuation

    // A pure phase-only measurement (lossless material) carries no
    // amplitude information to disambiguate with; keep gamma = 0.
    if (std::abs(log_psi) < 1e-12) {
        return 0;
    }

    int best_gamma = 0;
    bool found = false;
    for (int magnitude = 0; magnitude <= config.max_wraps && !found;
         ++magnitude) {
        for (const int sign : {1, -1}) {
            const int gamma = sign * magnitude;
            if (magnitude == 0 && sign < 0) {
                continue;
            }
            const double denom = delta_theta_rad + 2.0 * kPi * gamma;
            if (std::abs(denom) < 1e-12) {
                continue;
            }
            const double omega = log_psi / denom;
            // Admissible: attenuation and phase retardation must have
            // consistent signs — every lossy retarding liquid has a
            // positive feature — and a plausible magnitude.
            if (omega >= config.min_abs_omega &&
                omega <= config.max_abs_omega) {
                best_gamma = gamma;
                found = true;
                break;
            }
        }
    }
    return best_gamma;
}

namespace {

/// Eq. 18/19: the wrapped phase-difference change and amplitude-ratio
/// change between the stable ratios of target and baseline for one pair
/// and subcarrier (gamma and Omega not yet filled in).
MaterialMeasurement raw_measurement(Complex ratio_target,
                                    Complex ratio_baseline) {
    MaterialMeasurement m;
    // Eq. 18: change of the calibrated phase difference.
    m.delta_theta_rad =
        wrap_to_pi(std::arg(ratio_target) - std::arg(ratio_baseline));

    // Eq. 19: change of the stable amplitude ratio.
    m.delta_psi = std::abs(ratio_target) / std::abs(ratio_baseline);
    ensure(m.delta_psi > 0.0,
           "measure_material: nonpositive amplitude-ratio change");
    return m;
}

/// Eq. 21 with the ridge regularizer (see FeatureConfig). The sign follows
/// the paper's worked algebra of Eq. 19-20: Omega = ln(DeltaPsi) / d is
/// positive for every lossy retarding liquid (ln DeltaPsi and d are both
/// negative in the exp(-j beta d) phase convention this codebase uses).
void finish_measurement(MaterialMeasurement& m, int gamma,
                        const FeatureConfig& config) {
    if (gamma != 0) {
        WIMI_OBS_COUNT("feature.phase_unwrap_corrections", 1);
    }
    m.gamma = gamma;
    const double denom =
        m.delta_theta_rad + 2.0 * kPi * static_cast<double>(gamma);
    const double ridge = config.phase_ridge_rad;
    m.omega = std::log(m.delta_psi) * denom /
              (denom * denom + ridge * ridge);
}

void check_series(const csi::CsiSoa& baseline, const csi::CsiSoa& target) {
    ensure(baseline.packet_count() > 0 && target.packet_count() > 0,
           "measure_material: baseline and target must be non-empty");
    ensure(baseline.antenna_count() == target.antenna_count() &&
               baseline.subcarrier_count() == target.subcarrier_count(),
           "measure_material: series dimensions differ");
}

/// Every (subcarrier, pair) measurement of `target` against the profile,
/// subcarrier-major, with cross-pair wrap recovery (Sec. III-E/F).
///
/// Per subcarrier, pairs[0] is the reference pair: the closest pair,
/// assumed wrap-free, whose gamma comes from the admissible-range search.
/// Wider pairs recover their wrap count from the coarse amplitude
/// information: the log amplitude-ratio changes of two pairs scale with
/// their in-target path differences regardless of the material, so their
/// ratio predicts this pair's unwrapped phase from the reference's.
std::vector<MaterialMeasurement> measure_cells(const BaselineProfile& profile,
                                               const csi::CsiSoa& target) {
    ensure(target.antenna_count() == profile.antenna_count() &&
               target.subcarrier_count() == profile.subcarrier_count(),
           "measure_material: series dimensions differ");
    const std::vector<AntennaPair>& pairs = profile.pairs();
    const FeatureConfig& config = profile.config();
    const std::span<const Complex> baseline_ratios = profile.ratios();
    RatioScratch scratch(target.packet_count(), config);

    std::vector<MaterialMeasurement> out;
    out.reserve(baseline_ratios.size());
    for (const std::size_t sc : profile.subcarriers()) {
        // Stable target ratio of pair p at this subcarrier (Fig. 14
        // ablation: without amplitude denoising, neither the outlier gate
        // nor the impulse removal runs), against the profile's ratio for
        // the same cell.
        const std::size_t row = out.size();
        const auto measure = [&](std::size_t p) {
            return raw_measurement(
                mean_complex_ratio(target, pairs[p], sc, config.denoise,
                                   config.use_amplitude_denoising, scratch),
                baseline_ratios[row + p]);
        };

        MaterialMeasurement ref = measure(0);
        finish_measurement(
            ref,
            estimate_gamma(ref.delta_theta_rad, ref.delta_psi, config.gamma),
            config);
        const double ref_denom =
            ref.delta_theta_rad + kTwoPi * static_cast<double>(ref.gamma);
        const double ref_log_psi = -std::log(ref.delta_psi);
        out.push_back(ref);

        for (std::size_t p = 1; p < pairs.size(); ++p) {
            MaterialMeasurement m = measure(p);
            int gamma = 0;
            if (std::abs(ref_log_psi) > 0.05) {
                double path_ratio = -std::log(m.delta_psi) / ref_log_psi;
                // Geometry bounds the array's path-difference ratios;
                // clamping keeps a noisy near-zero reference from
                // predicting wild wraps.
                path_ratio = clamp(path_ratio, 0.0, 8.0);
                const double predicted = ref_denom * path_ratio;
                gamma = static_cast<int>(
                    std::lround((predicted - m.delta_theta_rad) / kTwoPi));
                gamma = static_cast<int>(clamp(
                    gamma, -config.gamma.max_wraps, config.gamma.max_wraps));
            }
            finish_measurement(m, gamma, config);
            out.push_back(m);
        }
    }
    return out;
}

std::vector<double> omegas(const std::vector<MaterialMeasurement>& cells) {
    std::vector<double> features;
    features.reserve(cells.size());
    for (const MaterialMeasurement& m : cells) {
        features.push_back(m.omega);
    }
    return features;
}

}  // namespace

BaselineProfile::BaselineProfile(const csi::CsiSoa& baseline,
                                 std::vector<AntennaPair> pairs,
                                 std::vector<std::size_t> subcarriers,
                                 FeatureConfig config)
    : pairs_(std::move(pairs)),
      subcarriers_(std::move(subcarriers)),
      config_(config),
      antenna_count_(baseline.antenna_count()),
      subcarrier_count_(baseline.subcarrier_count()) {
    ensure(!pairs_.empty(), "BaselineProfile: need >= 1 antenna pair");
    ensure(!subcarriers_.empty(), "BaselineProfile: need >= 1 subcarrier");
    RatioScratch scratch(baseline.packet_count(), config_);
    ratios_.reserve(pairs_.size() * subcarriers_.size());
    for (const std::size_t sc : subcarriers_) {
        for (const AntennaPair pair : pairs_) {
            const Complex ratio = mean_complex_ratio(
                baseline, pair, sc, config_.denoise,
                config_.use_amplitude_denoising, scratch);
            ensure(std::abs(ratio) > 0.0,
                   "measure_material: zero baseline antenna ratio");
            ratios_.push_back(ratio);
        }
    }
}

MaterialMeasurement measure_material(const csi::CsiSeries& baseline,
                                     const csi::CsiSeries& target,
                                     AntennaPair pair,
                                     std::size_t subcarrier,
                                     const FeatureConfig& config) {
    ensure(!baseline.empty() && !target.empty(),
           "measure_material: baseline and target must be non-empty");
    const csi::CsiSoa baseline_soa(baseline);
    const csi::CsiSoa target_soa(target);
    check_series(baseline_soa, target_soa);
    const BaselineProfile profile(baseline_soa, {pair}, {subcarrier},
                                  config);
    return measure_cells(profile, target_soa).front();
}

std::vector<MaterialMeasurement> measure_material_pairs(
    const csi::CsiSoa& baseline, const csi::CsiSoa& target,
    const std::vector<AntennaPair>& pairs, std::size_t subcarrier,
    const FeatureConfig& config) {
    ensure(!pairs.empty(), "measure_material_pairs: need >= 1 pair");
    check_series(baseline, target);
    return measure_cells(
        BaselineProfile(baseline, pairs, {subcarrier}, config), target);
}

std::vector<MaterialMeasurement> measure_material_pairs(
    const csi::CsiSeries& baseline, const csi::CsiSeries& target,
    const std::vector<AntennaPair>& pairs, std::size_t subcarrier,
    const FeatureConfig& config) {
    ensure(!baseline.empty() && !target.empty(),
           "measure_material: baseline and target must be non-empty");
    return measure_material_pairs(csi::CsiSoa(baseline),
                                  csi::CsiSoa(target), pairs, subcarrier,
                                  config);
}

std::vector<double> extract_feature_vector(
    const csi::CsiSoa& baseline, const csi::CsiSoa& target,
    const std::vector<AntennaPair>& pairs,
    const std::vector<std::size_t>& subcarriers,
    const FeatureConfig& config) {
    ensure(!pairs.empty(), "extract_feature_vector: need >= 1 antenna pair");
    ensure(!subcarriers.empty(),
           "extract_feature_vector: need >= 1 subcarrier");
    WIMI_TRACE_SPAN("feature.extract");
    WIMI_OBS_COUNT("feature.vectors_extracted", 1);
    check_series(baseline, target);
    return omegas(measure_cells(
        BaselineProfile(baseline, pairs, subcarriers, config), target));
}

std::vector<double> extract_feature_vector(const BaselineProfile& profile,
                                           const csi::CsiSoa& target) {
    WIMI_TRACE_SPAN("feature.extract");
    WIMI_OBS_COUNT("feature.vectors_extracted", 1);
    return omegas(measure_cells(profile, target));
}

std::vector<double> extract_feature_vector(
    const csi::CsiSeries& baseline, const csi::CsiSeries& target,
    const std::vector<AntennaPair>& pairs,
    const std::vector<std::size_t>& subcarriers,
    const FeatureConfig& config) {
    ensure(!baseline.empty() && !target.empty(),
           "measure_material: baseline and target must be non-empty");
    // Build the SoA once: amplitude planes are then computed and cached a
    // single time across all (subcarrier, pair) combinations.
    return extract_feature_vector(csi::CsiSoa(baseline),
                                  csi::CsiSoa(target), pairs, subcarriers,
                                  config);
}

}  // namespace wimi::core
