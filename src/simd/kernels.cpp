#include "simd/kernels.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "simd/simd.hpp"

namespace wimi::simd {
namespace {

constexpr std::size_t kLanes = kDoubleLanes;

/// Chunk length for the Kahan-compensated partial-sum merge (à la ROOT's
/// FitUtil chunked reduction): within a chunk, whole-vector accumulators
/// plus a sequential tail; across chunks, Kahan compensation applied in
/// index order. Deterministic for a given compiled lane width.
constexpr std::size_t kChunk = 1024;

/// vterm(i) yields the vec of terms starting at index i; sterm(i) the
/// scalar term at i. Chunked Kahan merge as described in kernels.hpp.
template <typename VTerm, typename STerm>
double reduce_vector(std::size_t n, VTerm&& vterm, STerm&& sterm) {
    double total = 0.0;
    double comp = 0.0;
    std::size_t i = 0;
    while (i < n) {
        const std::size_t end = std::min(n, i + kChunk);
        const std::size_t body = i + ((end - i) / kLanes) * kLanes;
        vd acc = vd::zero();
        for (; i < body; i += kLanes) {
            acc = acc + vterm(i);
        }
        double chunk = acc.hsum_ordered();
        for (; i < end; ++i) {
            chunk += sterm(i);
        }
        const double y = chunk - comp;
        const double t = total + y;
        comp = (t - total) - y;
        total = t;
    }
    return total;
}

}  // namespace

double sum(std::span<const double> x) {
    return reduce_vector(
        x.size(), [&](std::size_t i) { return vd::load(x.data() + i); },
        [&](std::size_t i) { return x[i]; });
}

double sum_squares(std::span<const double> x) {
    return reduce_vector(
        x.size(),
        [&](std::size_t i) {
            const vd v = vd::load(x.data() + i);
            return v * v;
        },
        [&](std::size_t i) { return x[i] * x[i]; });
}

double dot(std::span<const double> a, std::span<const double> b) {
    assert(a.size() == b.size());
    return reduce_vector(
        a.size(),
        [&](std::size_t i) {
            return vd::load(a.data() + i) * vd::load(b.data() + i);
        },
        [&](std::size_t i) { return a[i] * b[i]; });
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
    assert(a.size() == b.size());
    return reduce_vector(
        a.size(),
        [&](std::size_t i) {
            const vd d = vd::load(a.data() + i) - vd::load(b.data() + i);
            return d * d;
        },
        [&](std::size_t i) {
            const double d = a[i] - b[i];
            return d * d;
        });
}

double centered_sum_squares(std::span<const double> x, double mu) {
    const vd vmu = vd::broadcast(mu);
    return reduce_vector(
        x.size(),
        [&](std::size_t i) {
            const vd d = vd::load(x.data() + i) - vmu;
            return d * d;
        },
        [&](std::size_t i) {
            const double d = x[i] - mu;
            return d * d;
        });
}

double centered_dot(std::span<const double> a, double mu_a,
                    std::span<const double> b, double mu_b) {
    assert(a.size() == b.size());
    const vd va = vd::broadcast(mu_a);
    const vd vb = vd::broadcast(mu_b);
    return reduce_vector(
        a.size(),
        [&](std::size_t i) {
            return (vd::load(a.data() + i) - va) *
                   (vd::load(b.data() + i) - vb);
        },
        [&](std::size_t i) { return (a[i] - mu_a) * (b[i] - mu_b); });
}

bool all_finite(std::span<const double> x) {
    const std::size_t n = x.size();
    // x * 0.0 is ±0 for finite x and NaN for inf/NaN; the poison
    // survives every addition, so probe == 0.0 iff all inputs finite.
    vd acc = vd::zero();
    const vd z = vd::zero();
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        acc = acc + vd::load(x.data() + i) * z;
    }
    double probe = acc.hsum_ordered();
    for (; i < n; ++i) {
        probe += x[i] * 0.0;
    }
    return probe == 0.0;
}

// The elementwise kernels are plain loops: GCC 12 at -O3 vectorizes each
// one to the compiled width on its own, and per element the arithmetic is
// the same IEEE operation at any width.

void multiply(std::span<const double> a, std::span<const double> b,
              std::span<double> out) {
    assert(a.size() == b.size() && a.size() == out.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        out[i] = a[i] * b[i];
    }
}

void subtract(std::span<const double> a, std::span<const double> b,
              std::span<double> out) {
    assert(a.size() == b.size() && a.size() == out.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        out[i] = a[i] - b[i];
    }
}

void add_in_place(std::span<double> out, std::span<const double> x) {
    assert(x.size() == out.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        out[i] += x[i];
    }
}

void divide(std::span<const double> a, std::span<const double> b,
            std::span<double> out) {
    assert(a.size() == b.size() && a.size() == out.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        out[i] = a[i] / b[i];
    }
}

void divide(std::span<const double> x, double d, std::span<double> out) {
    assert(x.size() == out.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        out[i] = x[i] / d;
    }
}

void absolute_deviation(std::span<const double> x, double center,
                        std::span<double> out) {
    assert(x.size() == out.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        out[i] = std::abs(x[i] - center);
    }
}

std::size_t zero_dominated(std::span<const double> corr, double scale,
                           std::span<double> w) {
    assert(corr.size() == w.size());
    const std::size_t n = w.size();
    // w != 0.0  ⟺  |w| >= denorm_min for every non-NaN w, and a NaN w
    // fails both the tail's condition (|corr*scale| >= NaN is false) and
    // this one, so the lane body and the tail decide alike.
    const vd tiny = vd::broadcast(std::numeric_limits<double>::denorm_min());
    const vd vscale = vd::broadcast(scale);
    const vd zero = vd::zero();
    const vd one = vd::broadcast(1.0);
    vd tally = vd::zero();
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        const vd wv = vd::load(w.data() + i);
        const vd aw = abs(wv);
        const vd ac = abs(vd::load(corr.data() + i) * vscale);
        // dominated ? 0 : w, gated on w != 0 — kept lanes pass through
        // bitwise (including -0.0 and NaN payloads).
        const vd dominated = blend_ge(ac, aw, zero, wv);
        blend_ge(aw, tiny, dominated, wv).store(w.data() + i);
        tally = tally + blend_ge(aw, tiny, blend_ge(ac, aw, one, zero), zero);
    }
    std::size_t count = static_cast<std::size_t>(tally.hsum_ordered());
    for (; i < n; ++i) {
        if (w[i] != 0.0 && std::abs(corr[i] * scale) >= std::abs(w[i])) {
            w[i] = 0.0;
            ++count;
        }
    }
    return count;
}

void amplitude(std::span<const double> re, std::span<const double> im,
               std::span<double> out) {
    assert(re.size() == im.size() && re.size() == out.size());
    const std::size_t n = re.size();
    std::size_t i = 0;
    double sq[kLanes];
    for (; i + kLanes <= n; i += kLanes) {
        const vd r = vd::load(re.data() + i);
        const vd m = vd::load(im.data() + i);
        (r * r + m * m).store(sq);
        for (std::size_t l = 0; l < kLanes; ++l) {
            out[i + l] = std::sqrt(sq[l]);
        }
    }
    for (; i < n; ++i) {
        out[i] = std::sqrt(re[i] * re[i] + im[i] * im[i]);
    }
}

void complex_ratio(std::span<const double> re1, std::span<const double> im1,
                   std::span<const double> re2, std::span<const double> im2,
                   std::span<double> out_re, std::span<double> out_im) {
    const std::size_t n = re1.size();
    assert(im1.size() == n && re2.size() == n && im2.size() == n &&
           out_re.size() == n && out_im.size() == n);
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        const vd a = vd::load(re1.data() + i);
        const vd b = vd::load(im1.data() + i);
        const vd c = vd::load(re2.data() + i);
        const vd d = vd::load(im2.data() + i);
        const vd denom = c * c + d * d;
        ((a * c + b * d) / denom).store(out_re.data() + i);
        ((b * c - a * d) / denom).store(out_im.data() + i);
    }
    for (; i < n; ++i) {
        const double denom = re2[i] * re2[i] + im2[i] * im2[i];
        out_re[i] = (re1[i] * re2[i] + im1[i] * im2[i]) / denom;
        out_im[i] = (im1[i] * re2[i] - re1[i] * im2[i]) / denom;
    }
}

namespace {

/// The legacy dsp::wavelet a-trous tap weights, accumulated in tap order.
constexpr double kAtrous[5] = {1.0 / 16.0, 4.0 / 16.0, 6.0 / 16.0,
                               4.0 / 16.0, 1.0 / 16.0};

double atrous_one(const double* x, std::ptrdiff_t n, std::ptrdiff_t i,
                  std::ptrdiff_t step) {
    double acc = 0.0;
    for (std::size_t k = 0; k < 5; ++k) {
        std::ptrdiff_t idx = i + (static_cast<std::ptrdiff_t>(k) - 2) * step;
        idx = ((idx % n) + n) % n;
        acc += kAtrous[k] * x[idx];
    }
    return acc;
}

}  // namespace

void atrous_smooth(std::span<const double> x, std::size_t step,
                   std::span<double> out) {
    assert(x.size() == out.size() && step >= 1);
    const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
    const std::ptrdiff_t s = static_cast<std::ptrdiff_t>(step);
    if (n <= 4 * s) {
        for (std::ptrdiff_t i = 0; i < n; ++i) {
            out[static_cast<std::size_t>(i)] = atrous_one(x.data(), n, i, s);
        }
        return;
    }
    // Boundary positions need the periodic wrap; the interior
    // [2*step, n - 2*step) reads shifted unit-stride spans directly.
    for (std::ptrdiff_t i = 0; i < 2 * s; ++i) {
        out[static_cast<std::size_t>(i)] = atrous_one(x.data(), n, i, s);
    }
    for (std::ptrdiff_t i = n - 2 * s; i < n; ++i) {
        out[static_cast<std::size_t>(i)] = atrous_one(x.data(), n, i, s);
    }
    const double* p = x.data();
    const vd k0 = vd::broadcast(kAtrous[0]);
    const vd k1 = vd::broadcast(kAtrous[1]);
    const vd k2 = vd::broadcast(kAtrous[2]);
    const vd k3 = vd::broadcast(kAtrous[3]);
    const vd k4 = vd::broadcast(kAtrous[4]);
    std::ptrdiff_t i = 2 * s;
    const std::ptrdiff_t interior_end = n - 2 * s;
    const std::ptrdiff_t lanes = static_cast<std::ptrdiff_t>(kLanes);
    for (; i + lanes <= interior_end; i += lanes) {
        // Same accumulation order as atrous_one: 0 + k0*t0 + k1*t1 + ...
        vd acc = vd::zero();
        acc = acc + k0 * vd::load(p + i - 2 * s);
        acc = acc + k1 * vd::load(p + i - s);
        acc = acc + k2 * vd::load(p + i);
        acc = acc + k3 * vd::load(p + i + s);
        acc = acc + k4 * vd::load(p + i + 2 * s);
        acc.store(out.data() + i);
    }
    for (; i < interior_end; ++i) {
        out[static_cast<std::size_t>(i)] = atrous_one(x.data(), n, i, s);
    }
}

namespace {

/// Median of the edge-shrunk window around i: copy, sort, take the middle
/// (the legacy dsp::median_filter loop). `buffer` holds the window.
double median_window(std::span<const double> x, std::size_t i,
                     std::size_t half, double* buffer) {
    const std::size_t n = x.size();
    const std::size_t reach = std::min({half, i, n - 1 - i});
    const std::size_t w = 2 * reach + 1;
    std::copy(x.data() + (i - reach), x.data() + (i + reach + 1), buffer);
    std::sort(buffer, buffer + w);
    return buffer[w / 2];
}

vd med3(vd a, vd b, vd c) {
    return max(min(a, b), min(max(a, b), c));
}

vd med5(vd a, vd b, vd c, vd d, vd e) {
    // Classic 6-comparison median-of-5 network.
    const vd m1 = max(min(a, b), min(c, d));
    const vd m2 = min(max(a, b), max(c, d));
    return med3(m1, m2, e);
}

vd med7(vd w0, vd w1, vd w2, vd w3, vd w4, vd w5, vd w6) {
    // Odd-even transposition sort over 7 registers (7 rounds), provably
    // sorting; the median is slot 3. All ops are min/max selections, so
    // the result is an input value — identical to sort-and-pick-middle.
    vd s[7] = {w0, w1, w2, w3, w4, w5, w6};
    const auto cex = [&](int a, int b) {
        const vd lo = min(s[a], s[b]);
        const vd hi = max(s[a], s[b]);
        s[a] = lo;
        s[b] = hi;
    };
    for (int round = 0; round < 7; ++round) {
        if (round % 2 == 0) {
            cex(0, 1);
            cex(2, 3);
            cex(4, 5);
        } else {
            cex(1, 2);
            cex(3, 4);
            cex(5, 6);
        }
    }
    return s[3];
}

}  // namespace

void sliding_median(std::span<const double> x, std::size_t half,
                    std::span<double> out) {
    assert(x.size() == out.size());
    const std::size_t n = x.size();
    // Selection networks cover the interior for half widths 1-3; edge
    // windows and every wider window are sorted, in a buffer no longer
    // than the window or the input.
    std::vector<double> buffer(std::min(2 * half + 1, n));
    if (half == 0 || half > 3 || n < 2 * half + 1) {
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = median_window(x, i, half, buffer.data());
        }
        return;
    }
    for (std::size_t i = 0; i < half; ++i) {
        out[i] = median_window(x, i, half, buffer.data());
        out[n - 1 - i] = median_window(x, n - 1 - i, half, buffer.data());
    }
    const double* p = x.data();
    std::size_t i = half;
    const std::size_t interior_end = n - half;
    for (; i + kLanes <= interior_end; i += kLanes) {
        vd m;
        switch (half) {
            case 1:
                m = med3(vd::load(p + i - 1), vd::load(p + i),
                         vd::load(p + i + 1));
                break;
            case 2:
                m = med5(vd::load(p + i - 2), vd::load(p + i - 1),
                         vd::load(p + i), vd::load(p + i + 1),
                         vd::load(p + i + 2));
                break;
            default:
                m = med7(vd::load(p + i - 3), vd::load(p + i - 2),
                         vd::load(p + i - 1), vd::load(p + i),
                         vd::load(p + i + 1), vd::load(p + i + 2),
                         vd::load(p + i + 3));
                break;
        }
        m.store(out.data() + i);
    }
    for (; i < interior_end; ++i) {
        out[i] = median_window(x, i, half, buffer.data());
    }
}

void biquad_cascade(std::span<const double> x, std::span<double> y,
                    std::span<Biquad> sections) {
    assert(x.size() == y.size());
    // Fused: each sample flows through the whole cascade before the next
    // one, so the signal crosses memory once. Per (sample, section) the
    // arithmetic and state updates are those of section-at-a-time
    // filtering, hence bit-exact with it.
    for (std::size_t i = 0; i < x.size(); ++i) {
        double v = x[i];
        for (Biquad& s : sections) {
            const double yi = s.b0 * v + s.z1;
            s.z1 = s.b1 * v - s.a1 * yi + s.z2;
            s.z2 = s.b2 * v - s.a2 * yi;
            v = yi;
        }
        y[i] = v;
    }
}

}  // namespace wimi::simd
