#include "ml/svm.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/parallel.hpp"
#include "obs/obs.hpp"
#include "simd/kernels.hpp"

namespace wimi::ml {
namespace {

double kernel_eval(Kernel kind, double gamma, std::span<const double> a,
                   std::span<const double> b) {
    switch (kind) {
        case Kernel::kLinear:
            return simd::dot(a, b);
        case Kernel::kRbf:
            return std::exp(-gamma * simd::squared_distance(a, b));
    }
    fail("kernel_eval: unknown kernel");
}

}  // namespace

BinarySvm::BinarySvm(const SvmConfig& config) : config_(config) {
    ensure(config.c > 0.0, "BinarySvm: C must be positive");
    ensure(config.gamma > 0.0, "BinarySvm: gamma must be positive");
    ensure(config.tolerance > 0.0, "BinarySvm: tolerance must be positive");
}

double BinarySvm::kernel(std::span<const double> a,
                         std::span<const double> b) const {
    return kernel_eval(config_.kernel, config_.gamma, a, b);
}

void BinarySvm::train(std::span<const double> features, std::size_t width,
                      std::span<const int> labels) {
    ensure(width >= 1, "BinarySvm::train: width must be >= 1");
    const std::size_t n = labels.size();
    ensure(n >= 2, "BinarySvm::train: need at least 2 samples");
    ensure(features.size() == n * width,
           "BinarySvm::train: feature array size mismatch");
    bool has_pos = false;
    bool has_neg = false;
    for (const int y : labels) {
        ensure(y == 1 || y == -1, "BinarySvm::train: labels must be +/-1");
        has_pos |= (y == 1);
        has_neg |= (y == -1);
    }
    ensure(has_pos && has_neg,
           "BinarySvm::train: need samples of both classes");

    const auto row = [&](std::size_t i) {
        return features.subspan(i * width, width);
    };

    // Precompute the Gram matrix; WiMi training sets are small (tens to a
    // few hundred samples), so O(n^2) memory is the right trade.
    std::vector<double> gram(n * n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
            const double k = kernel(row(i), row(j));
            gram[i * n + j] = k;
            gram[j * n + i] = k;
        }
    }

    std::vector<double> alpha(n, 0.0);
    double b = 0.0;
    const double c = config_.c;
    const double tol = config_.tolerance;

    const auto f = [&](std::size_t i) {
        double sum = b;
        for (std::size_t j = 0; j < n; ++j) {
            if (alpha[j] != 0.0) {
                sum += alpha[j] * static_cast<double>(labels[j]) *
                       gram[j * n + i];
            }
        }
        return sum;
    };

    Rng rng(config_.seed);
    std::size_t quiet_passes = 0;
    std::size_t passes_run = 0;
    for (std::size_t pass = 0;
         pass < config_.max_passes && quiet_passes < config_.convergence_passes;
         ++pass, ++passes_run) {
        std::size_t changed = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const double yi = static_cast<double>(labels[i]);
            const double ei = f(i) - yi;
            // KKT violation check.
            if (!((yi * ei < -tol && alpha[i] < c) ||
                  (yi * ei > tol && alpha[i] > 0.0))) {
                continue;
            }
            // Random second index j != i (simplified SMO heuristic).
            std::size_t j = static_cast<std::size_t>(rng.uniform_index(n - 1));
            if (j >= i) {
                ++j;
            }
            const double yj = static_cast<double>(labels[j]);
            const double ej = f(j) - yj;

            const double alpha_i_old = alpha[i];
            const double alpha_j_old = alpha[j];
            double lo;
            double hi;
            if (labels[i] != labels[j]) {
                lo = std::max(0.0, alpha_j_old - alpha_i_old);
                hi = std::min(c, c + alpha_j_old - alpha_i_old);
            } else {
                lo = std::max(0.0, alpha_i_old + alpha_j_old - c);
                hi = std::min(c, alpha_i_old + alpha_j_old);
            }
            if (lo >= hi) {
                continue;
            }
            const double eta =
                2.0 * gram[i * n + j] - gram[i * n + i] - gram[j * n + j];
            if (eta >= 0.0) {
                continue;
            }
            double alpha_j_new = alpha_j_old - yj * (ei - ej) / eta;
            alpha_j_new = std::clamp(alpha_j_new, lo, hi);
            if (std::abs(alpha_j_new - alpha_j_old) < 1e-7) {
                continue;
            }
            const double alpha_i_new =
                alpha_i_old + yi * yj * (alpha_j_old - alpha_j_new);
            alpha[i] = alpha_i_new;
            alpha[j] = alpha_j_new;

            const double b1 = b - ei -
                              yi * (alpha_i_new - alpha_i_old) * gram[i * n + i] -
                              yj * (alpha_j_new - alpha_j_old) * gram[i * n + j];
            const double b2 = b - ej -
                              yi * (alpha_i_new - alpha_i_old) * gram[i * n + j] -
                              yj * (alpha_j_new - alpha_j_old) * gram[j * n + j];
            if (alpha_i_new > 0.0 && alpha_i_new < c) {
                b = b1;
            } else if (alpha_j_new > 0.0 && alpha_j_new < c) {
                b = b2;
            } else {
                b = 0.5 * (b1 + b2);
            }
            ++changed;
        }
        quiet_passes = (changed == 0) ? quiet_passes + 1 : 0;
    }
    WIMI_OBS_COUNT("svm.smo_passes", passes_run);
    WIMI_OBS_HISTOGRAM("svm.train.passes",
                       static_cast<double>(passes_run));

    // Keep only support vectors.
    width_ = width;
    support_vectors_.clear();
    alphas_.clear();
    for (std::size_t i = 0; i < n; ++i) {
        if (alpha[i] > 1e-9) {
            const auto r = row(i);
            support_vectors_.insert(support_vectors_.end(), r.begin(),
                                    r.end());
            alphas_.push_back(alpha[i] * static_cast<double>(labels[i]));
        }
    }
    bias_ = b;
    WIMI_OBS_HISTOGRAM("svm.train.support_vectors",
                       static_cast<double>(alphas_.size()));
}

double BinarySvm::decision(std::span<const double> x) const {
    ensure(trained(), "BinarySvm::decision: not trained");
    ensure(x.size() == width_, "BinarySvm::decision: width mismatch");
    // One support vector at a time, features accumulated in order, so the
    // decision value does not depend on the build's SIMD width.
    double sum = bias_;
    const double* sv = support_vectors_.data();
    for (std::size_t s = 0; s < alphas_.size(); ++s, sv += width_) {
        double acc = 0.0;
        switch (config_.kernel) {
            case Kernel::kLinear:
                for (std::size_t j = 0; j < width_; ++j) {
                    acc += sv[j] * x[j];
                }
                sum += alphas_[s] * acc;
                break;
            case Kernel::kRbf:
                for (std::size_t j = 0; j < width_; ++j) {
                    const double d = sv[j] - x[j];
                    acc += d * d;
                }
                sum += alphas_[s] * std::exp(-config_.gamma * acc);
                break;
        }
    }
    return sum;
}

int BinarySvm::predict(std::span<const double> x) const {
    return decision(x) >= 0.0 ? 1 : -1;
}

BinarySvm BinarySvm::restore(const SvmConfig& config, std::size_t width,
                             std::vector<double> support_vectors,
                             std::vector<double> alphas, double bias) {
    ensure(width >= 1, "BinarySvm::restore: width must be >= 1");
    ensure(!alphas.empty(),
           "BinarySvm::restore: need at least one support vector");
    ensure(support_vectors.size() == alphas.size() * width,
           "BinarySvm::restore: support vector array size mismatch");
    for (const double v : support_vectors) {
        ensure(std::isfinite(v),
               "BinarySvm::restore: non-finite support vector value");
    }
    for (const double a : alphas) {
        ensure(std::isfinite(a), "BinarySvm::restore: non-finite alpha");
    }
    ensure(std::isfinite(bias), "BinarySvm::restore: non-finite bias");
    BinarySvm svm(config);  // validates C/gamma/tolerance
    svm.width_ = width;
    svm.support_vectors_ = std::move(support_vectors);
    svm.alphas_ = std::move(alphas);
    svm.bias_ = bias;
    return svm;
}

MulticlassSvm::MulticlassSvm(const SvmConfig& config) : config_(config) {}

void MulticlassSvm::train(const Dataset& data) {
    ensure(!data.empty(), "MulticlassSvm::train: empty dataset");
    WIMI_TRACE_SPAN("svm.train");
    classes_ = data.distinct_labels();
    ensure(classes_.size() >= 2,
           "MulticlassSvm::train: need at least 2 classes");
    machines_.clear();  // a failed retrain must not leave a stale model

    // Enumerate the unordered label pairs up front, then train the
    // machines in parallel: each SMO run seeds its own Rng from the
    // config, so every machine is deterministic in isolation, and
    // collecting by pair index keeps machines_ in the legacy order.
    std::vector<std::pair<int, int>> label_pairs;
    label_pairs.reserve(classes_.size() * (classes_.size() - 1) / 2);
    for (std::size_t a = 0; a < classes_.size(); ++a) {
        for (std::size_t b = a + 1; b < classes_.size(); ++b) {
            label_pairs.emplace_back(classes_[a], classes_[b]);
        }
    }

    const std::size_t width = data.feature_count();
    machines_ = exec::parallel_map<PairMachine>(
        label_pairs.size(),
        [&](std::size_t p) {
            PairMachine machine;
            machine.positive_label = label_pairs[p].first;
            machine.negative_label = label_pairs[p].second;
            machine.svm = BinarySvm(config_);

            std::vector<double> features;
            std::vector<int> labels;
            for (std::size_t row = 0; row < data.size(); ++row) {
                const int y = data.label(row);
                if (y != machine.positive_label &&
                    y != machine.negative_label) {
                    continue;
                }
                const auto x = data.features(row);
                features.insert(features.end(), x.begin(), x.end());
                labels.push_back(y == machine.positive_label ? 1 : -1);
            }
            machine.svm.train(features, width, labels);
            return machine;
        },
        {.label = "svm.pairs", .threads = config_.threads});
}

MulticlassSvm MulticlassSvm::restore(const SvmConfig& config,
                                     std::vector<int> classes,
                                     std::vector<PairMachine> machines) {
    ensure(classes.size() >= 2,
           "MulticlassSvm::restore: need at least 2 classes");
    ensure(std::is_sorted(classes.begin(), classes.end()) &&
               std::adjacent_find(classes.begin(), classes.end()) ==
                   classes.end(),
           "MulticlassSvm::restore: classes must be sorted and unique");
    ensure(machines.size() == classes.size() * (classes.size() - 1) / 2,
           "MulticlassSvm::restore: machine count must be one per "
           "unordered class pair");
    // Machines must arrive in the canonical order train() produces —
    // (classes[a], classes[b]) for a < b — which also guarantees each
    // pair appears exactly once.
    std::size_t m = 0;
    for (std::size_t a = 0; a < classes.size(); ++a) {
        for (std::size_t b = a + 1; b < classes.size(); ++b, ++m) {
            ensure(machines[m].positive_label == classes[a] &&
                       machines[m].negative_label == classes[b],
                   "MulticlassSvm::restore: machines out of canonical "
                   "pair order");
            ensure(machines[m].svm.trained(),
                   "MulticlassSvm::restore: untrained pair machine");
            ensure(machines[m].svm.width() == machines.front().svm.width(),
                   "MulticlassSvm::restore: inconsistent feature widths");
        }
    }
    MulticlassSvm svm(config);
    svm.classes_ = std::move(classes);
    svm.machines_ = std::move(machines);
    return svm;
}

std::vector<std::pair<int, int>> MulticlassSvm::votes(
    std::span<const double> features) const {
    ensure(trained(), "MulticlassSvm::votes: not trained");
    std::map<int, int> tally;
    for (const int c : classes_) {
        tally[c] = 0;
    }
    for (const auto& machine : machines_) {
        const double d = machine.svm.decision(features);
        ++tally[d >= 0.0 ? machine.positive_label : machine.negative_label];
    }
    return {tally.begin(), tally.end()};
}

int MulticlassSvm::predict(std::span<const double> features) const {
    ensure(trained(), "MulticlassSvm::predict: not trained");
    std::map<int, int> tally;
    std::map<int, double> strength;
    for (const auto& machine : machines_) {
        const double d = machine.svm.decision(features);
        const int winner =
            d >= 0.0 ? machine.positive_label : machine.negative_label;
        ++tally[winner];
        strength[winner] += std::abs(d);
    }
    int best_label = classes_.front();
    int best_votes = -1;
    double best_strength = -1.0;
    for (const auto& [label, count] : tally) {
        const double s = strength[label];
        if (count > best_votes ||
            (count == best_votes && s > best_strength)) {
            best_label = label;
            best_votes = count;
            best_strength = s;
        }
    }
    return best_label;
}

}  // namespace wimi::ml
