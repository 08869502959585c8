// Support vector machine, implemented from scratch.
//
// The paper identifies materials by feeding the extracted features and the
// material database to "the SVM classifier" (Sec. III-E). This is a
// kernelized soft-margin SVM trained with the SMO algorithm (Platt 1998,
// simplified variant with randomized second-choice heuristic), extended to
// multiclass via one-vs-one voting — the same construction LIBSVM uses.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace wimi::ml {

/// Kernel families supported by the SVM.
enum class Kernel {
    kLinear,  ///< K(a, b) = <a, b>
    kRbf,     ///< K(a, b) = exp(-gamma |a - b|^2)
};

/// SVM hyperparameters.
struct SvmConfig {
    Kernel kernel = Kernel::kRbf;
    double c = 10.0;        ///< soft-margin penalty
    double gamma = 0.3;     ///< RBF width (ignored for linear)
    double tolerance = 1e-3;
    /// SMO stops after this many consecutive full passes without updates.
    std::size_t convergence_passes = 5;
    /// Hard cap on total SMO passes (safety bound).
    std::size_t max_passes = 200;
    std::uint64_t seed = 42;  ///< randomized pair-selection seed
    /// Fan-out width for one-vs-one training (0 = exec pool default,
    /// 1 = serial). Results are identical at every width.
    std::size_t threads = 0;
};

/// Two-class SVM trained by SMO. Labels are +1 / -1.
class BinarySvm {
public:
    explicit BinarySvm(const SvmConfig& config = {});

    /// Trains on rows of `features` (row-major, `width` columns) with
    /// labels in {-1, +1}. Requires at least one sample of each sign.
    void train(std::span<const double> features, std::size_t width,
               std::span<const int> labels);

    /// Signed decision value f(x); classify by its sign.
    double decision(std::span<const double> x) const;

    /// Predicted label in {-1, +1}.
    int predict(std::span<const double> x) const;

    std::size_t support_vector_count() const { return alphas_.size(); }
    bool trained() const { return width_ > 0; }

    // Trained-state access for the model serializer (serve/model_io).
    // A restored machine is decision-for-decision identical to the
    // original because decision() depends only on these fields.
    const SvmConfig& config() const { return config_; }
    std::size_t width() const { return width_; }
    std::span<const double> support_vectors() const {
        return support_vectors_;
    }
    std::span<const double> alphas() const { return alphas_; }
    double bias() const { return bias_; }

    /// Rebuilds a trained machine from persisted state. Validates the
    /// shape (sv array = alphas * width, >= 1 support vector) and that
    /// every value is finite; throws wimi::Error otherwise.
    static BinarySvm restore(const SvmConfig& config, std::size_t width,
                             std::vector<double> support_vectors,
                             std::vector<double> alphas, double bias);

private:
    double kernel(std::span<const double> a, std::span<const double> b) const;

    SvmConfig config_;
    std::size_t width_ = 0;
    std::vector<double> support_vectors_;  // row-major
    std::vector<double> alphas_;           // alpha_i * y_i
    double bias_ = 0.0;
};

/// One-vs-one multiclass SVM.
class MulticlassSvm {
public:
    /// One pairwise machine of the one-vs-one ensemble (public so the
    /// model serializer can walk and rebuild the ensemble).
    struct PairMachine {
        int positive_label = 0;
        int negative_label = 0;
        BinarySvm svm;
    };

    explicit MulticlassSvm(const SvmConfig& config = {});

    /// Trains one binary SVM per unordered label pair. Requires >= 2
    /// classes, each with >= 1 sample.
    void train(const Dataset& data);

    /// Majority vote across pairwise machines; ties broken by the largest
    /// summed decision magnitude.
    int predict(std::span<const double> features) const;

    /// Per-class vote counts for one sample (diagnostics / confidence).
    std::vector<std::pair<int, int>> votes(
        std::span<const double> features) const;

    bool trained() const { return !machines_.empty(); }
    std::span<const int> classes() const { return classes_; }

    // Trained-state access for the model serializer.
    const SvmConfig& config() const { return config_; }
    std::span<const PairMachine> machines() const { return machines_; }

    /// Rebuilds a trained ensemble from persisted state. Validates that
    /// `classes` is sorted, unique, and >= 2 entries; that there is
    /// exactly one trained machine per unordered class pair (in the
    /// canonical pair order train() produces); and that every machine
    /// shares one feature width. Throws wimi::Error otherwise.
    static MulticlassSvm restore(const SvmConfig& config,
                                 std::vector<int> classes,
                                 std::vector<PairMachine> machines);

private:
    SvmConfig config_;
    std::vector<int> classes_;
    std::vector<PairMachine> machines_;
};

}  // namespace wimi::ml
