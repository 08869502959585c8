// Vectorized kernels for the DSP/feature hot path.
//
// Every kernel has one production body, written against
// vec<double, kDoubleLanes> where the wide form pays and as a plain loop
// where the compiler already emits the same vector code from it (the
// elementwise kernels). The pre-SIMD scalar loops each kernel replaced
// live in tests/simd_reference.hpp, as the oracle of the differential
// suite in tests/test_simd_kernels.cpp, which also pins the production
// output bits at every lane width.
//
// Classification against those references:
//   bit-exact (same bits as the reference on every input):
//     multiply, subtract, add_in_place, divide, absolute_deviation,
//     atrous_smooth, sliding_median, biquad_cascade, zero_dominated,
//     all_finite (predicate)
//   tolerance-gated (reassociates, or uses a different but
//   correctly-rounded-per-op formula):
//     sum, sum_squares, dot, squared_distance, centered_sum_squares,
//     centered_dot (chunked Kahan partial sums merged in index order —
//     deterministic per width, but not the sequential order), amplitude
//     (sqrt(re^2+im^2) vs std::abs's overflow-safe hypot), complex_ratio
//     (textbook formula vs libstdc++'s Smith division).
#pragma once

#include <cstddef>
#include <span>

namespace wimi::simd {

/// Sum of x: chunked lane-partial sums with Kahan compensation across
/// chunks, merged in index order (deterministic per width).
double sum(std::span<const double> x);

/// Sum of x[i]^2, same accumulation scheme as sum().
double sum_squares(std::span<const double> x);

/// Dot product of a and b (sizes must match), same scheme as sum().
double dot(std::span<const double> a, std::span<const double> b);

/// Sum of (a[i]-b[i])^2 (sizes must match), same scheme as sum().
double squared_distance(std::span<const double> a, std::span<const double> b);

/// Sum of (x[i]-mu)^2, same scheme as sum(). The centered-moment core of
/// dsp::variance / sample_variance.
double centered_sum_squares(std::span<const double> x, double mu);

/// Sum of (a[i]-mu_a)*(b[i]-mu_b) (sizes must match), same scheme as
/// sum(). The covariance core of dsp::pearson_correlation.
double centered_dot(std::span<const double> a, double mu_a,
                    std::span<const double> b, double mu_b);

/// True iff every element is finite. Accumulates x*0.0 (±0 for finite
/// x, NaN for inf/NaN — the poison survives the lane sum), so the
/// predicate is exact, not tolerance-gated.
bool all_finite(std::span<const double> x);

/// out[i] = a[i] * b[i].
void multiply(std::span<const double> a, std::span<const double> b,
              std::span<double> out);

/// out[i] = a[i] - b[i].
void subtract(std::span<const double> a, std::span<const double> b,
              std::span<double> out);

/// out[i] += x[i].
void add_in_place(std::span<double> out, std::span<const double> x);

/// out[i] = a[i] / b[i]. True division per element.
void divide(std::span<const double> a, std::span<const double> b,
            std::span<double> out);

/// out[i] = x[i] / d. True division per element, not multiplication by
/// the rounded reciprocal (which rounds twice).
void divide(std::span<const double> x, double d, std::span<double> out);

/// out[i] = |x[i] - center|. The deviation core of dsp::
/// median_absolute_deviation.
void absolute_deviation(std::span<const double> x, double center,
                        std::span<double> out);

/// The impulse-extraction step of the wavelet-correlation denoiser
/// (WiMi Eq. 13): for every m with w[m] != 0 and
/// |corr[m] * scale| >= |w[m]|, set w[m] = 0.0. Returns the number of
/// coefficients zeroed. Kept lanes pass through bit-for-bit and the
/// zero/keep decision is an exact comparison, so this is bit-exact.
/// Inputs must be finite (callers run all_finite first).
std::size_t zero_dominated(std::span<const double> corr, double scale,
                           std::span<double> w);

/// out[i] = |re[i] + i*im[i]| as sqrt(re^2 + im^2). Tolerance-gated
/// against std::abs(std::complex).
void amplitude(std::span<const double> re, std::span<const double> im,
               std::span<double> out);

/// Elementwise complex ratio (re1+i*im1)/(re2+i*im2) by the textbook
/// formula over the squared denominator magnitude. Tolerance-gated
/// against std::complex division. Caller guarantees |denominator| > 0
/// per element.
void complex_ratio(std::span<const double> re1, std::span<const double> im1,
                   std::span<const double> re2, std::span<const double> im2,
                   std::span<double> out_re, std::span<double> out_im);

/// Periodic 5-tap a-trous B3-spline smoothing pass:
///   out[i] = (x[i-2s] + 4 x[i-s] + 6 x[i] + 4 x[i+s] + x[i+2s]) / 16
/// with periodic index wrap-around and tap accumulation in tap order
/// (the legacy dsp::wavelet order). The modulo is lifted out of the
/// interior span, which runs wide; boundaries stay scalar. Bit-exact.
void atrous_smooth(std::span<const double> x, std::size_t step,
                   std::span<double> out);

/// Sliding odd-window median with symmetric edge shrink (the legacy
/// dsp::median_filter contract): out[i] = median(x[i-r .. i+r]) where
/// r = min(half, i, n-1-i). Half widths 1-3 (windows 3/5/7) evaluate
/// interior windows with min/max selection networks, lane-parallel
/// across output positions; edges and every other half width sort each
/// window. Both pick an input value, so results are bit-exact.
void sliding_median(std::span<const double> x, std::size_t half,
                    std::span<double> out);

/// One biquad section in transposed direct-form II (the legacy
/// dsp::run_sections layout): y = b0*x + z1; z1' = b1*x - a1*y + z2;
/// z2' = b2*x - a2*y.
struct Biquad {
    double b0 = 0.0, b1 = 0.0, b2 = 0.0;
    double a1 = 0.0, a2 = 0.0;
    double z1 = 0.0, z2 = 0.0;
};

/// Run a cascade of biquad sections over x into y (in-place ok when
/// x.data() == y.data()). The cascade is fused per sample, one pass over
/// memory; each section's state goes through the same arithmetic on the
/// same values as section-at-a-time filtering, so this is bit-exact.
/// Section states are left at their post-run values (callers reset
/// between passes, as filtfilt does).
void biquad_cascade(std::span<const double> x, std::span<double> y,
                    std::span<Biquad> sections);

}  // namespace wimi::simd
