// Discrete wavelet transforms.
//
// Two transforms are provided:
//
//  * A decimated orthogonal DWT (Haar / Daubechies-2 / Daubechies-4) with
//    periodic boundary handling and perfect reconstruction — the textbook
//    transform the paper cites via Torrence & Compo [23].
//
//  * An undecimated ("a trous" / stationary) transform in the additive
//    form x = sum_l detail_l + approx_L, where every scale keeps the full
//    signal length. Sample-aligned scales are what the spatially-selective
//    correlation denoiser (paper Sec. III-C, ref. Xu et al. [24]) needs to
//    multiply adjacent-scale coefficients element-wise (Eq. 11).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wimi::dsp {

/// Supported orthogonal wavelet families for the decimated DWT.
enum class Wavelet {
    kHaar,  ///< 2-tap Haar
    kDb2,   ///< 4-tap Daubechies
    kDb4,   ///< 8-tap Daubechies
};

/// Low-pass analysis filter taps for `wavelet`.
std::span<const double> scaling_filter(Wavelet wavelet);

/// Result of a multi-level decimated DWT.
struct DwtDecomposition {
    /// Detail coefficients, details[0] = finest scale (level 1).
    std::vector<std::vector<double>> details;
    /// Approximation coefficients at the coarsest level.
    std::vector<double> approx;
    /// Original signal length (decomposition pads odd lengths).
    std::size_t original_length = 0;
    Wavelet wavelet = Wavelet::kHaar;
};

/// Largest level count usable for a signal of length n with `wavelet`.
std::size_t max_dwt_levels(std::size_t n, Wavelet wavelet);

/// Multi-level decimated DWT with periodic boundaries. `levels` must be
/// between 1 and max_dwt_levels(input.size(), wavelet).
DwtDecomposition dwt(std::span<const double> input, Wavelet wavelet,
                     std::size_t levels);

/// Inverse of dwt(); returns a signal of decomposition.original_length.
std::vector<double> idwt(const DwtDecomposition& decomposition);

/// Result of the undecimated a-trous decomposition:
/// input = details[0] + details[1] + ... + approx, all of equal length.
struct AtrousDecomposition {
    std::vector<std::vector<double>> details;  ///< details[0] = finest
    std::vector<double> approx;                ///< residual smooth
};

/// Undecimated a-trous transform using the cubic B3-spline smoothing kernel
/// (1/16)[1 4 6 4 1] with 2^l hole insertion and periodic boundaries.
/// Requires 1 <= levels and a non-empty input.
AtrousDecomposition atrous_decompose(std::span<const double> input,
                                     std::size_t levels);

/// atrous_decompose into caller-owned planes: every plane of `out` is
/// resized to input.size() and overwritten, so repeated calls reuse its
/// storage. Bit-identical to the returning overload.
void atrous_decompose(std::span<const double> input, std::size_t levels,
                      AtrousDecomposition& out);

/// Reconstruction is the plain sum of all detail planes plus the approx.
std::vector<double> atrous_reconstruct(const AtrousDecomposition& d);

/// atrous_reconstruct into `out`, which must have the planes' length.
void atrous_reconstruct(const AtrousDecomposition& d, std::span<double> out);

}  // namespace wimi::dsp
