// Differential fuzz suite for the SIMD kernels (src/simd/kernels.hpp):
// every production kernel against its pre-SIMD scalar reference
// (simd_reference.hpp), at every size from empty through several lane
// widths past the chunk boundary, including denormal inputs and
// non-multiple-of-width tails.
//
// The contract under test (see the kernels.hpp header comment):
//   * bit-exact kernels — output bitwise identical to the reference on
//     every input;
//   * tolerance-gated kernels — output within a tight relative tolerance
//     of the reference, and deterministic (same input -> bitwise same
//     output on repeated calls).
//
// The 1-lane build (-DWIMI_SIMD=off) runs the same kernel bodies at one
// lane, so the comparisons hold there too.
#include "simd/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "simd/simd.hpp"
#include "simd_reference.hpp"

namespace wimi::simd {
namespace {

/// Sizes that exercise empty input, sub-lane tails, exact lane
/// multiples, and the reduce chunk boundary (kChunk = 1024 in
/// kernels.cpp) with tails on both sides.
const std::vector<std::size_t>& fuzz_sizes() {
    static const std::vector<std::size_t> sizes = [] {
        std::vector<std::size_t> s;
        for (std::size_t n = 0; n <= 40; ++n) {
            s.push_back(n);
        }
        for (const std::size_t n : {511u, 1023u, 1024u, 1025u, 2048u + 7u}) {
            s.push_back(n);
        }
        return s;
    }();
    return sizes;
}

/// Mixed-magnitude fuzz input: mostly O(1) gaussians with occasional
/// large, tiny, and denormal values so tails and reductions see the
/// full dynamic range.
std::vector<double> fuzz_vector(Rng& rng, std::size_t n) {
    std::vector<double> v(n);
    for (double& x : v) {
        switch (rng.uniform_index(8)) {
            case 0:
                x = rng.uniform(-1e12, 1e12);
                break;
            case 1:
                x = rng.uniform(-1e-300, 1e-300);  // subnormal range
                break;
            case 2:
                x = 0.0;
                break;
            default:
                x = rng.gaussian(0.0, 3.0);
        }
    }
    return v;
}

/// Strictly positive variant (denominators, amplitudes).
std::vector<double> fuzz_positive(Rng& rng, std::size_t n) {
    auto v = fuzz_vector(rng, n);
    for (double& x : v) {
        x = std::abs(x) + 1e-6;
    }
    return v;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what,
                          std::size_t n) {
    ASSERT_EQ(a.size(), b.size()) << what << " n=" << n;
    for (std::size_t i = 0; i < a.size(); ++i) {
        // Bitwise: EXPECT_EQ on doubles distinguishes every value pair
        // except 0.0 vs -0.0 and NaNs; the fuzz inputs produce neither
        // mismatch mode when the kernels are correct, and the exactness
        // claim is about equal *values* from identical arithmetic.
        ASSERT_EQ(a[i], b[i]) << what << " n=" << n << " i=" << i;
        ASSERT_EQ(std::signbit(a[i]), std::signbit(b[i]))
            << what << " n=" << n << " i=" << i;
    }
}

void expect_near_rel(double a, double b, double rel, const char* what,
                     std::size_t n) {
    const double tol = rel * std::max({std::abs(a), std::abs(b), 1.0});
    EXPECT_NEAR(a, b, tol) << what << " n=" << n;
}

TEST(SimdDispatch, CompiledConfigurationIsConsistent) {
    EXPECT_GE(kDoubleLanes, 1u);
    // Arch flags are scoped to the wimi_simd target, so this TU may be
    // compiled narrower than the library kernels run at — never wider
    // (WIMI_SIMD=off is a global definition, wide ISAs are library-only).
    EXPECT_GE(double_lanes(), kDoubleLanes);
    EXPECT_STRNE(effective_isa(), "");
#if WIMI_SIMD_NATIVE
    EXPECT_GT(double_lanes(), 1u);
#else
    EXPECT_EQ(double_lanes(), 1u);
    EXPECT_STREQ(effective_isa(), "scalar");
#endif
}

TEST(SimdVec, LoadStoreBroadcastLaneRoundTrip) {
    std::vector<double> in(kDoubleLanes);
    for (std::size_t i = 0; i < kDoubleLanes; ++i) {
        in[i] = 1.5 * static_cast<double>(i) - 2.0;
    }
    const vd v = vd::load(in.data());
    for (std::size_t i = 0; i < kDoubleLanes; ++i) {
        EXPECT_EQ(v.lane(i), in[i]);
    }
    std::vector<double> out(kDoubleLanes, 0.0);
    v.store(out.data());
    EXPECT_EQ(out, in);

    const vd b = vd::broadcast(3.25);
    for (std::size_t i = 0; i < kDoubleLanes; ++i) {
        EXPECT_EQ(b.lane(i), 3.25);
    }
    EXPECT_EQ(vd::zero().lane(0), 0.0);
}

TEST(SimdVec, ArithmeticMatchesScalarPerLane) {
    std::vector<double> xa(kDoubleLanes);
    std::vector<double> xb(kDoubleLanes);
    Rng rng(5);
    for (std::size_t i = 0; i < kDoubleLanes; ++i) {
        xa[i] = rng.gaussian(0.0, 2.0);
        xb[i] = rng.gaussian(1.0, 2.0);
    }
    const vd a = vd::load(xa.data());
    const vd b = vd::load(xb.data());
    for (std::size_t i = 0; i < kDoubleLanes; ++i) {
        EXPECT_EQ((a + b).lane(i), xa[i] + xb[i]);
        EXPECT_EQ((a - b).lane(i), xa[i] - xb[i]);
        EXPECT_EQ((a * b).lane(i), xa[i] * xb[i]);
        EXPECT_EQ((a / b).lane(i), xa[i] / xb[i]);
        EXPECT_EQ(min(a, b).lane(i), std::min(xa[i], xb[i]));
        EXPECT_EQ(max(a, b).lane(i), std::max(xa[i], xb[i]));
    }
    // hsum_ordered: lane sum in lane index order, by definition.
    double expected = 0.0;
    for (std::size_t i = 0; i < kDoubleLanes; ++i) {
        expected += xa[i];
    }
    EXPECT_EQ(a.hsum_ordered(), expected);
}

// ---- bit-exact elementwise kernels -------------------------------------

TEST(SimdKernels, MultiplySubtractScaleAddBitExact) {
    Rng rng(101);
    for (const std::size_t n : fuzz_sizes()) {
        const auto a = fuzz_vector(rng, n);
        const auto b = fuzz_vector(rng, n);

        std::vector<double> scalar_out(n);
        std::vector<double> vector_out(n);

        reference::multiply(a, b, scalar_out);
        multiply(a, b, vector_out);
        expect_bitwise_equal(scalar_out, vector_out, "multiply", n);

        reference::subtract(a, b, scalar_out);
        subtract(a, b, vector_out);
        expect_bitwise_equal(scalar_out, vector_out, "subtract", n);

        auto acc_scalar = b;
        auto acc_vector = b;
        reference::add_in_place(acc_scalar, a);
        add_in_place(acc_vector, a);
        expect_bitwise_equal(acc_scalar, acc_vector, "add_in_place", n);
    }
}

TEST(SimdKernels, AtrousSmoothBitExactAllStepsAndSizes) {
    Rng rng(102);
    for (const std::size_t n : fuzz_sizes()) {
        if (n == 0) {
            continue;
        }
        const auto x = fuzz_vector(rng, n);
        for (const std::size_t step : {1u, 2u, 4u, 8u, 16u}) {
            std::vector<double> scalar_out(n);
            std::vector<double> vector_out(n);
            reference::atrous_smooth(x, step, scalar_out);
            atrous_smooth(x, step, vector_out);
            expect_bitwise_equal(scalar_out, vector_out, "atrous_smooth", n);
        }
    }
}

TEST(SimdKernels, BiquadCascadeBitExact) {
    Rng rng(103);
    // A plausible low-pass-ish two-section cascade plus a section with
    // larger feedback, to push state arithmetic around.
    const std::vector<Biquad> prototype = {
        {0.2, 0.4, 0.2, -0.5, 0.2, 0.0, 0.0},
        {0.9, -1.2, 0.4, -1.1, 0.35, 0.0, 0.0},
    };
    for (const std::size_t n : fuzz_sizes()) {
        const auto x = fuzz_vector(rng, n);
        std::vector<double> scalar_out(n);
        std::vector<double> vector_out(n);
        auto scalar_state = prototype;
        auto vector_state = prototype;
        reference::biquad_cascade(x, scalar_out, scalar_state);
        biquad_cascade(x, vector_out, vector_state);
        expect_bitwise_equal(scalar_out, vector_out, "biquad_cascade", n);
        // Post-run section states must agree too — filtfilt reuses them
        // only after a reset, but the contract says identical arithmetic.
        for (std::size_t s = 0; s < prototype.size(); ++s) {
            EXPECT_EQ(scalar_state[s].z1, vector_state[s].z1);
            EXPECT_EQ(scalar_state[s].z2, vector_state[s].z2);
        }
    }
}

TEST(SimdKernels, BiquadCascadeInPlaceMatchesOutOfPlace) {
    Rng rng(104);
    const std::vector<Biquad> prototype = {
        {0.3, 0.1, 0.05, -0.4, 0.1, 0.0, 0.0}};
    const auto x = fuzz_vector(rng, 257);
    std::vector<double> reference(x.size());
    auto ref_state = prototype;
    biquad_cascade(x, reference, ref_state);

    auto in_place = x;
    auto state = prototype;
    biquad_cascade(in_place, in_place, state);
    expect_bitwise_equal(reference, in_place, "biquad_in_place", x.size());
}

TEST(SimdKernels, SlidingMedianBitExactAgainstSortReference) {
    Rng rng(105);
    for (const std::size_t n : fuzz_sizes()) {
        if (n == 0) {
            continue;
        }
        auto x = fuzz_vector(rng, n);
        // The exactness argument assumes no -0.0 (a -0.0/+0.0 tie can
        // legally resolve to either bit pattern); the pipeline filters
        // amplitudes, which are nonnegative.
        for (double& v : x) {
            if (v == 0.0) {
                v = 0.0;
            }
        }
        for (const int half : {1, 2, 3}) {
            std::vector<double> scalar_out(n);
            std::vector<double> vector_out(n);
            reference::sliding_median(x, half, scalar_out);
            sliding_median(x, half, vector_out);
            expect_bitwise_equal(scalar_out, vector_out, "sliding_median", n);

            // Independent reference: copy, sort, middle (the legacy
            // dsp::median_filter inner loop).
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t r = std::min(
                    {static_cast<std::size_t>(half), i, n - 1 - i});
                std::vector<double> window(x.begin() + (i - r),
                                           x.begin() + (i + r + 1));
                std::sort(window.begin(), window.end());
                ASSERT_EQ(scalar_out[i], window[window.size() / 2])
                    << "n=" << n << " half=" << half << " i=" << i;
            }
        }
    }
}

TEST(SimdKernels, SlidingMedianExhaustiveSmallPermutations) {
    // Every window the med3/med5 networks can see, including duplicates:
    // all value tuples over a small alphabet, checked against sort.
    for (const int half : {1, 2}) {
        const std::size_t w = 2 * static_cast<std::size_t>(half) + 1;
        const std::size_t alphabet = 3;
        std::size_t combos = 1;
        for (std::size_t i = 0; i < w; ++i) {
            combos *= alphabet;
        }
        for (std::size_t code = 0; code < combos; ++code) {
            std::vector<double> x(w);
            std::size_t c = code;
            for (std::size_t i = 0; i < w; ++i) {
                x[i] = static_cast<double>(c % alphabet);
                c /= alphabet;
            }
            std::vector<double> out(w);
            sliding_median(x, half, out);
            auto sorted = x;
            std::sort(sorted.begin(), sorted.end());
            // Center output has the full window.
            EXPECT_EQ(out[w / 2], sorted[w / 2]) << "code=" << code;
        }
    }
}

TEST(SimdKernels, SlidingMedianWideWindowsMatchSortReference) {
    // Windows of 9 and 11 have no selection network: the kernel sorts
    // every window, edges and interior alike.
    Rng rng(106);
    for (const std::size_t n : fuzz_sizes()) {
        if (n == 0) {
            continue;
        }
        const auto x = fuzz_vector(rng, n);
        for (const std::size_t half : {4u, 5u}) {
            std::vector<double> expected(n);
            std::vector<double> out(n);
            reference::sliding_median(x, half, expected);
            sliding_median(x, half, out);
            expect_bitwise_equal(expected, out, "sliding_median_wide", n);
        }
    }
}

TEST(SimdVec, AbsClearsSignBitPerLane) {
    std::vector<double> in(kDoubleLanes);
    Rng rng(112);
    for (double& x : in) {
        x = rng.gaussian(0.0, 3.0);
    }
    in[0] = -0.0;
    const vd a = abs(vd::load(in.data()));
    for (std::size_t i = 0; i < kDoubleLanes; ++i) {
        EXPECT_EQ(a.lane(i), std::abs(in[i]));
        EXPECT_FALSE(std::signbit(a.lane(i))) << "lane " << i;
    }
}

TEST(SimdVec, BlendGeSelectsPerLane) {
    std::vector<double> xa(kDoubleLanes);
    std::vector<double> xb(kDoubleLanes);
    Rng rng(113);
    for (std::size_t i = 0; i < kDoubleLanes; ++i) {
        xa[i] = rng.gaussian(0.0, 1.0);
        xb[i] = rng.gaussian(0.0, 1.0);
    }
    xa[0] = 2.0;
    xb[0] = 2.0;  // equality selects t
    const vd t = vd::broadcast(1.0);
    const vd f = vd::broadcast(-1.0);
    const vd r = blend_ge(vd::load(xa.data()), vd::load(xb.data()), t, f);
    for (std::size_t i = 0; i < kDoubleLanes; ++i) {
        EXPECT_EQ(r.lane(i), xa[i] >= xb[i] ? 1.0 : -1.0) << "lane " << i;
    }
    // NaN comparisons are false -> f, and selected lanes pass through
    // bit-for-bit (here: a negative zero from the f operand).
    const vd nan_a = vd::broadcast(std::nan(""));
    const vd neg_zero = vd::broadcast(-0.0);
    const vd picked = blend_ge(nan_a, vd::zero(), t, neg_zero);
    EXPECT_EQ(picked.lane(0), 0.0);
    EXPECT_TRUE(std::signbit(picked.lane(0)));
}

TEST(SimdKernels, DivideBitExact) {
    Rng rng(114);
    for (const std::size_t n : fuzz_sizes()) {
        const auto a = fuzz_vector(rng, n);
        const auto b = fuzz_positive(rng, n);
        const double d = rng.uniform(0.25, 4.0) *
                         (rng.uniform_index(2) == 0 ? 1.0 : -1.0);
        std::vector<double> scalar_out(n);
        std::vector<double> vector_out(n);

        reference::divide(a, b, scalar_out);
        divide(a, b, vector_out);
        expect_bitwise_equal(scalar_out, vector_out, "divide", n);

        reference::divide(a, d, scalar_out);
        divide(a, d, vector_out);
        expect_bitwise_equal(scalar_out, vector_out, "divide_scalar", n);
        // True division, not multiplication by the rounded reciprocal.
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(scalar_out[i], a[i] / d);
        }
    }
}

TEST(SimdKernels, AbsoluteDeviationBitExact) {
    Rng rng(115);
    for (const std::size_t n : fuzz_sizes()) {
        auto x = fuzz_vector(rng, n);
        if (n > 1) {
            x[0] = -0.0;  // |(-0) - 0| must be +0 on both paths
        }
        for (const double center : {0.0, rng.gaussian(0.0, 5.0)}) {
            std::vector<double> scalar_out(n);
            std::vector<double> vector_out(n);
            reference::absolute_deviation(x, center, scalar_out);
            absolute_deviation(x, center, vector_out);
            expect_bitwise_equal(scalar_out, vector_out,
                                 "absolute_deviation", n);
            for (const double v : scalar_out) {
                EXPECT_FALSE(std::signbit(v));
            }
        }
    }
}

TEST(SimdKernels, AllFiniteAgreesWithIsfinite) {
    Rng rng(116);
    const double poisons[] = {std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              std::nan("")};
    for (const std::size_t n : fuzz_sizes()) {
        const auto clean = fuzz_vector(rng, n);
        EXPECT_TRUE(reference::all_finite(clean)) << "n=" << n;
        EXPECT_TRUE(all_finite(clean)) << "n=" << n;
        if (n == 0) {
            continue;
        }
        // Poison every position in turn (covers lane body and tail).
        for (std::size_t at = 0; at < n; ++at) {
            auto bad = clean;
            bad[at] = poisons[at % 3];
            EXPECT_FALSE(reference::all_finite(bad))
                << "n=" << n << " at=" << at;
            EXPECT_FALSE(all_finite(bad))
                << "n=" << n << " at=" << at;
        }
    }
    // Denormals are finite.
    const std::vector<double> denorm(9, 5e-324);
    EXPECT_TRUE(all_finite(denorm));
}

TEST(SimdKernels, ZeroDominatedBitExactWithMatchingCounts) {
    Rng rng(117);
    for (const std::size_t n : fuzz_sizes()) {
        const auto corr = fuzz_vector(rng, n);
        auto w = fuzz_vector(rng, n);
        if (n > 3) {
            w[1] = 0.0;   // already-zero lanes stay untouched
            w[2] = -0.0;  // and keep their sign bit
        }
        // Scales spanning "zeroes almost nothing" to "zeroes nearly all".
        for (const double scale : {0.0, 1e-6, 1.0, 1e6}) {
            auto w_scalar = w;
            auto w_vector = w;
            const std::size_t c_scalar =
                reference::zero_dominated(corr, scale, w_scalar);
            const std::size_t c_vector =
                zero_dominated(corr, scale, w_vector);
            EXPECT_EQ(c_scalar, c_vector) << "n=" << n << " scale=" << scale;
            expect_bitwise_equal(w_scalar, w_vector, "zero_dominated", n);

            // Independent reference: the legacy Eq. 13 loop.
            auto w_ref = w;
            std::size_t c_ref = 0;
            for (std::size_t m = 0; m < n; ++m) {
                if (w_ref[m] != 0.0 &&
                    std::abs(corr[m] * scale) >= std::abs(w_ref[m])) {
                    w_ref[m] = 0.0;
                    ++c_ref;
                }
            }
            EXPECT_EQ(c_scalar, c_ref);
            expect_bitwise_equal(w_scalar, w_ref, "zero_dominated_ref", n);
        }
    }
}

// ---- tolerance-gated reductions ----------------------------------------

TEST(SimdKernels, ReductionsWithinToleranceAndDeterministic) {
    Rng rng(107);
    for (const std::size_t n : fuzz_sizes()) {
        const auto a = fuzz_vector(rng, n);
        const auto b = fuzz_vector(rng, n);

        expect_near_rel(reference::sum(a), sum(a), 1e-12, "sum", n);
        expect_near_rel(reference::sum_squares(a), sum_squares(a), 1e-12,
                        "sum_squares", n);
        expect_near_rel(reference::dot(a, b), dot(a, b), 1e-10, "dot", n);
        expect_near_rel(reference::squared_distance(a, b),
                        squared_distance(a, b), 1e-12, "squared_distance",
                        n);

        const double mu_a = n > 0 ? reference::sum(a) /
                                        static_cast<double>(n)
                                  : 0.0;
        const double mu_b = n > 0 ? reference::sum(b) /
                                        static_cast<double>(n)
                                  : 0.0;
        expect_near_rel(reference::centered_sum_squares(a, mu_a),
                        centered_sum_squares(a, mu_a), 1e-12,
                        "centered_sum_squares", n);
        expect_near_rel(reference::centered_dot(a, mu_a, b, mu_b),
                        centered_dot(a, mu_a, b, mu_b), 1e-10,
                        "centered_dot", n);

        // Determinism: the kernels are chunked + Kahan-merged in a
        // fixed order, so repeated calls are bitwise identical.
        EXPECT_EQ(sum(a), sum(a));
        EXPECT_EQ(dot(a, b), dot(a, b));
        EXPECT_EQ(centered_sum_squares(a, mu_a),
                  centered_sum_squares(a, mu_a));
    }
}

TEST(SimdKernels, AmplitudeWithinToleranceIncludingDenormals) {
    Rng rng(109);
    for (const std::size_t n : fuzz_sizes()) {
        auto re = fuzz_vector(rng, n);
        auto im = fuzz_vector(rng, n);
        if (n > 2) {
            re[0] = 5e-324;  // smallest denormal
            im[0] = 0.0;
            re[1] = 1e-308;
            im[1] = -1e-308;
        }
        std::vector<double> scalar_out(n);
        std::vector<double> vector_out(n);
        reference::amplitude(re, im, scalar_out);
        amplitude(re, im, vector_out);
        for (std::size_t i = 0; i < n; ++i) {
            // The naive sqrt(re^2+im^2) underflows to 0 wherever the
            // squares round below the smallest subnormal — components up
            // to ~2e-162 — while std::abs's hypot recovers the true
            // magnitude. Absolute slack covers that whole region (~1e300
            // below any quantized CSI amplitude); relative agreement is
            // last-ulp in the normal range.
            const double tol =
                1e-13 * std::abs(scalar_out[i]) + 1e-160;
            EXPECT_NEAR(scalar_out[i], vector_out[i], tol)
                << "amplitude n=" << n << " i=" << i;
        }
    }
}

TEST(SimdKernels, ComplexRatioWithinTolerance) {
    Rng rng(110);
    for (const std::size_t n : fuzz_sizes()) {
        const auto re1 = fuzz_vector(rng, n);
        const auto im1 = fuzz_vector(rng, n);
        const auto re2 = fuzz_positive(rng, n);
        const auto im2 = fuzz_vector(rng, n);
        std::vector<double> sr(n);
        std::vector<double> si(n);
        std::vector<double> vr(n);
        std::vector<double> vi(n);
        reference::complex_ratio(re1, im1, re2, im2, sr, si);
        complex_ratio(re1, im1, re2, im2, vr, vi);
        for (std::size_t i = 0; i < n; ++i) {
            const double mag =
                std::max({std::abs(sr[i]), std::abs(si[i]), 1e-30});
            EXPECT_NEAR(sr[i], vr[i], 1e-12 * mag) << "n=" << n << " i=" << i;
            EXPECT_NEAR(si[i], vi[i], 1e-12 * mag) << "n=" << n << " i=" << i;
        }
    }
}

// ---- golden pins of the production bits --------------------------------
//
// The differential tests above compare two bodies of each kernel; these
// pin what production computes. Each test folds the output bits of the
// production kernels over the fuzz sizes into an FNV-1a-64 digest.
// Only the reductions depend on the lane width (lane-partial sums), so
// they carry one recorded digest per width: 2, 4 and 8 double lanes,
// the SSE2/NEON, AVX2 and AVX-512 builds. Every other kernel performs
// the same operations per element at any width, so one digest holds in
// every build, the 1-lane -DWIMI_SIMD=off build included.

/// 64-bit FNV-1a over the bit patterns of everything folded in.
class BitDigest {
public:
    void add(std::uint64_t bits) {
        for (int byte = 0; byte < 8; ++byte) {
            state_ ^= (bits >> (8 * byte)) & 0xffu;
            state_ *= 0x00000100000001b3ull;
        }
    }
    void add(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }
    void add(const std::vector<double>& v) {
        add(static_cast<std::uint64_t>(v.size()));
        for (const double x : v) {
            add(x);
        }
    }
    std::uint64_t value() const { return state_; }

private:
    std::uint64_t state_ = 0xcbf29ce484222325ull;
};

TEST(SimdGolden, Reductions) {
    if (double_lanes() == 1) {
        GTEST_SKIP() << "no digest recorded at 1 lane: the -DWIMI_SIMD=off "
                        "build's reductions changed by design";
    }
    Rng rng(201);
    BitDigest digest;
    for (const std::size_t n : fuzz_sizes()) {
        const auto a = fuzz_vector(rng, n);
        const auto b = fuzz_vector(rng, n);
        const double mu_a = rng.gaussian(0.0, 2.0);
        const double mu_b = rng.gaussian(0.0, 2.0);
        digest.add(sum(a));
        digest.add(sum_squares(a));
        digest.add(dot(a, b));
        digest.add(squared_distance(a, b));
        digest.add(centered_sum_squares(a, mu_a));
        digest.add(centered_dot(a, mu_a, b, mu_b));
        digest.add(static_cast<std::uint64_t>(all_finite(a)));
        if (n > 0) {
            auto bad = a;
            bad[n / 2] = std::numeric_limits<double>::infinity();
            digest.add(static_cast<std::uint64_t>(all_finite(bad)));
        }
    }
    // Recorded at 2, 4 and 8 double lanes.
    const std::uint64_t expected =
        double_lanes() == 2   ? 0xa90afff32f8bd60full
        : double_lanes() == 4 ? 0x301ae47c97f80434ull
                              : 0xb704a520565a79c0ull;
    EXPECT_EQ(digest.value(), expected)
        << "lanes=" << double_lanes() << " digest=0x" << std::hex
        << digest.value();
}

TEST(SimdGolden, Elementwise) {
    Rng rng(202);
    BitDigest digest;
    for (const std::size_t n : fuzz_sizes()) {
        const auto a = fuzz_vector(rng, n);
        const auto b = fuzz_vector(rng, n);
        const auto positive = fuzz_positive(rng, n);
        const double d = rng.uniform(0.25, 4.0);
        const double center = rng.gaussian(0.0, 5.0);
        std::vector<double> out(n);
        multiply(a, b, out);
        digest.add(out);
        subtract(a, b, out);
        digest.add(out);
        auto acc = b;
        add_in_place(acc, a);
        digest.add(acc);
        divide(a, positive, out);
        digest.add(out);
        divide(a, d, out);
        digest.add(out);
        absolute_deviation(a, center, out);
        digest.add(out);
    }
    EXPECT_EQ(digest.value(), 0xf99ff42cd4916982ull)
        << "digest=0x" << std::hex << digest.value();
}

TEST(SimdGolden, AmplitudeAndComplexRatio) {
    Rng rng(203);
    BitDigest digest;
    for (const std::size_t n : fuzz_sizes()) {
        const auto re1 = fuzz_vector(rng, n);
        const auto im1 = fuzz_vector(rng, n);
        const auto re2 = fuzz_positive(rng, n);
        const auto im2 = fuzz_vector(rng, n);
        std::vector<double> out_re(n);
        std::vector<double> out_im(n);
        amplitude(re1, im1, out_re);
        digest.add(out_re);
        complex_ratio(re1, im1, re2, im2, out_re, out_im);
        digest.add(out_re);
        digest.add(out_im);
    }
    EXPECT_EQ(digest.value(), 0x55e76d5cab86fe34ull)
        << "digest=0x" << std::hex << digest.value();
}

TEST(SimdGolden, WaveletKernels) {
    Rng rng(204);
    BitDigest digest;
    for (const std::size_t n : fuzz_sizes()) {
        const auto x = fuzz_vector(rng, n);
        for (const double scale : {0.0, 1e-6, 1.0, 1e6}) {
            auto w = fuzz_vector(rng, n);
            digest.add(
                static_cast<std::uint64_t>(zero_dominated(x, scale, w)));
            digest.add(w);
        }
        if (n == 0) {
            continue;
        }
        for (const std::size_t step : {1u, 2u, 4u, 8u, 16u}) {
            std::vector<double> out(n);
            atrous_smooth(x, step, out);
            digest.add(out);
        }
    }
    EXPECT_EQ(digest.value(), 0x5a7917004e29802full)
        << "digest=0x" << std::hex << digest.value();
}

TEST(SimdGolden, Filters) {
    Rng rng(205);
    const std::vector<Biquad> prototype = {
        {0.2, 0.4, 0.2, -0.5, 0.2, 0.0, 0.0},
        {0.9, -1.2, 0.4, -1.1, 0.35, 0.0, 0.0},
    };
    BitDigest digest;
    for (const std::size_t n : fuzz_sizes()) {
        const auto x = fuzz_vector(rng, n);
        std::vector<double> out(n);
        auto state = prototype;
        biquad_cascade(x, out, state);
        digest.add(out);
        for (const Biquad& s : state) {
            digest.add(s.z1);
            digest.add(s.z2);
        }
        if (n == 0) {
            continue;
        }
        for (const std::size_t half : {1u, 2u, 3u}) {
            sliding_median(x, half, out);
            digest.add(out);
        }
    }
    EXPECT_EQ(digest.value(), 0x27a16e6f2a506044ull)
        << "digest=0x" << std::hex << digest.value();
}

}  // namespace
}  // namespace wimi::simd
