// Pre-SIMD scalar references for the kernels in src/simd/kernels.hpp:
// each is the sequential loop the kernel replaced, with the legacy
// operation order (std::abs(std::complex) and std::complex division
// where the legacy code used them). They are the oracle of the
// differential suite in test_simd_kernels.cpp; production never calls
// them.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "simd/kernels.hpp"

namespace wimi::simd::reference {

inline double sum(std::span<const double> x) {
    double s = 0.0;
    for (const double v : x) {
        s += v;
    }
    return s;
}

inline double sum_squares(std::span<const double> x) {
    double s = 0.0;
    for (const double v : x) {
        s += v * v;
    }
    return s;
}

inline double dot(std::span<const double> a, std::span<const double> b) {
    assert(a.size() == b.size());
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        s += a[i] * b[i];
    }
    return s;
}

inline double squared_distance(std::span<const double> a,
                               std::span<const double> b) {
    assert(a.size() == b.size());
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        s += d * d;
    }
    return s;
}

inline double centered_sum_squares(std::span<const double> x, double mu) {
    double s = 0.0;
    for (const double v : x) {
        const double d = v - mu;
        s += d * d;
    }
    return s;
}

inline double centered_dot(std::span<const double> a, double mu_a,
                           std::span<const double> b, double mu_b) {
    assert(a.size() == b.size());
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        s += (a[i] - mu_a) * (b[i] - mu_b);
    }
    return s;
}

inline bool all_finite(std::span<const double> x) {
    for (const double v : x) {
        if (!std::isfinite(v)) {
            return false;
        }
    }
    return true;
}

inline void multiply(std::span<const double> a, std::span<const double> b,
                     std::span<double> out) {
    for (std::size_t i = 0; i < a.size(); ++i) {
        out[i] = a[i] * b[i];
    }
}

inline void subtract(std::span<const double> a, std::span<const double> b,
                     std::span<double> out) {
    for (std::size_t i = 0; i < a.size(); ++i) {
        out[i] = a[i] - b[i];
    }
}

inline void add_in_place(std::span<double> out, std::span<const double> x) {
    for (std::size_t i = 0; i < x.size(); ++i) {
        out[i] += x[i];
    }
}

inline void divide(std::span<const double> a, std::span<const double> b,
                   std::span<double> out) {
    for (std::size_t i = 0; i < a.size(); ++i) {
        out[i] = a[i] / b[i];
    }
}

inline void divide(std::span<const double> x, double d,
                   std::span<double> out) {
    for (std::size_t i = 0; i < x.size(); ++i) {
        out[i] = x[i] / d;
    }
}

inline void absolute_deviation(std::span<const double> x, double center,
                               std::span<double> out) {
    for (std::size_t i = 0; i < x.size(); ++i) {
        out[i] = std::abs(x[i] - center);
    }
}

inline std::size_t zero_dominated(std::span<const double> corr, double scale,
                                  std::span<double> w) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < w.size(); ++i) {
        if (w[i] != 0.0 && std::abs(corr[i] * scale) >= std::abs(w[i])) {
            w[i] = 0.0;
            ++count;
        }
    }
    return count;
}

inline void amplitude(std::span<const double> re, std::span<const double> im,
                      std::span<double> out) {
    for (std::size_t i = 0; i < re.size(); ++i) {
        out[i] = std::abs(std::complex<double>(re[i], im[i]));
    }
}

inline void complex_ratio(std::span<const double> re1,
                          std::span<const double> im1,
                          std::span<const double> re2,
                          std::span<const double> im2,
                          std::span<double> out_re, std::span<double> out_im) {
    for (std::size_t i = 0; i < re1.size(); ++i) {
        const std::complex<double> q = std::complex<double>(re1[i], im1[i]) /
                                       std::complex<double>(re2[i], im2[i]);
        out_re[i] = q.real();
        out_im[i] = q.imag();
    }
}

/// Periodic 5-tap B3-spline pass, taps accumulated in tap order.
inline void atrous_smooth(std::span<const double> x, std::size_t step,
                          std::span<double> out) {
    constexpr double kTaps[5] = {1.0 / 16.0, 4.0 / 16.0, 6.0 / 16.0,
                                 4.0 / 16.0, 1.0 / 16.0};
    const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
    const std::ptrdiff_t s = static_cast<std::ptrdiff_t>(step);
    for (std::ptrdiff_t i = 0; i < n; ++i) {
        double acc = 0.0;
        for (std::size_t k = 0; k < 5; ++k) {
            std::ptrdiff_t idx = i + (static_cast<std::ptrdiff_t>(k) - 2) * s;
            idx = ((idx % n) + n) % n;
            acc += kTaps[k] * x[static_cast<std::size_t>(idx)];
        }
        out[static_cast<std::size_t>(i)] = acc;
    }
}

/// Edge-shrunk sliding median: copy each window, sort, take the middle.
inline void sliding_median(std::span<const double> x, std::size_t half,
                           std::span<double> out) {
    const std::size_t n = x.size();
    std::vector<double> window;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t reach = std::min({half, i, n - 1 - i});
        window.assign(x.begin() + static_cast<std::ptrdiff_t>(i - reach),
                      x.begin() + static_cast<std::ptrdiff_t>(i + reach + 1));
        std::sort(window.begin(), window.end());
        out[i] = window[window.size() / 2];
    }
}

/// Section-at-a-time biquad cascade over the whole signal.
inline void biquad_cascade(std::span<const double> x, std::span<double> y,
                           std::span<Biquad> sections) {
    if (y.data() != x.data()) {
        std::copy(x.begin(), x.end(), y.begin());
    }
    for (Biquad& s : sections) {
        for (std::size_t i = 0; i < y.size(); ++i) {
            const double xi = y[i];
            const double yi = s.b0 * xi + s.z1;
            s.z1 = s.b1 * xi - s.a1 * yi + s.z2;
            s.z2 = s.b2 * xi - s.a2 * yi;
            y[i] = yi;
        }
    }
}

}  // namespace wimi::simd::reference
