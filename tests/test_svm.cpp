// Tests for the SMO-trained SVM.
#include "ml/svm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace wimi::ml {
namespace {

struct Binary2d {
    std::vector<double> features;
    std::vector<int> labels;
};

Binary2d separable_blobs(std::uint64_t seed, std::size_t per_class,
                         double gap = 4.0) {
    Rng rng(seed);
    Binary2d out;
    for (std::size_t i = 0; i < per_class; ++i) {
        out.features.push_back(rng.gaussian(-gap / 2.0, 0.5));
        out.features.push_back(rng.gaussian(0.0, 0.5));
        out.labels.push_back(-1);
        out.features.push_back(rng.gaussian(gap / 2.0, 0.5));
        out.features.push_back(rng.gaussian(0.0, 0.5));
        out.labels.push_back(1);
    }
    return out;
}

TEST(BinarySvm, SeparatesLinearBlobsWithLinearKernel) {
    SvmConfig config;
    config.kernel = Kernel::kLinear;
    BinarySvm svm(config);
    const auto data = separable_blobs(1, 30);
    svm.train(data.features, 2, data.labels);
    ASSERT_TRUE(svm.trained());

    int correct = 0;
    Rng rng(2);
    for (int i = 0; i < 100; ++i) {
        const int truth = rng.bernoulli(0.5) ? 1 : -1;
        const std::vector<double> x = {
            rng.gaussian(truth * 2.0, 0.5), rng.gaussian(0.0, 0.5)};
        correct += (svm.predict(x) == truth) ? 1 : 0;
    }
    EXPECT_GE(correct, 97);
}

TEST(BinarySvm, DecisionSignMatchesPrediction) {
    BinarySvm svm;
    const auto data = separable_blobs(3, 20);
    svm.train(data.features, 2, data.labels);
    const std::vector<double> x = {1.7, 0.1};
    EXPECT_EQ(svm.predict(x), svm.decision(x) >= 0.0 ? 1 : -1);
}

TEST(BinarySvm, SolvesXorWithRbfKernel) {
    // XOR is not linearly separable; RBF must handle it.
    std::vector<double> features;
    std::vector<int> labels;
    Rng rng(5);
    const double corners[4][3] = {{0, 0, -1}, {1, 1, -1}, {0, 1, 1},
                                  {1, 0, 1}};
    for (int rep = 0; rep < 20; ++rep) {
        for (const auto& c : corners) {
            features.push_back(c[0] + rng.gaussian(0.0, 0.05));
            features.push_back(c[1] + rng.gaussian(0.0, 0.05));
            labels.push_back(static_cast<int>(c[2]));
        }
    }
    SvmConfig config;
    config.kernel = Kernel::kRbf;
    config.gamma = 4.0;
    BinarySvm svm(config);
    svm.train(features, 2, labels);
    EXPECT_EQ(svm.predict(std::vector<double>{0.0, 0.0}), -1);
    EXPECT_EQ(svm.predict(std::vector<double>{1.0, 1.0}), -1);
    EXPECT_EQ(svm.predict(std::vector<double>{0.0, 1.0}), 1);
    EXPECT_EQ(svm.predict(std::vector<double>{1.0, 0.0}), 1);
}

TEST(BinarySvm, SupportVectorsSubsetOfTraining) {
    BinarySvm svm;
    const auto data = separable_blobs(7, 40);
    svm.train(data.features, 2, data.labels);
    // Well-separated blobs need few support vectors.
    EXPECT_LT(svm.support_vector_count(), 80u);
    EXPECT_GE(svm.support_vector_count(), 2u);
}

TEST(BinarySvm, DecisionMatchesRowByRowLoop) {
    // Overlapping 5-d classes, so the machine keeps many support vectors.
    Rng rng(17);
    constexpr std::size_t kWidth = 5;
    std::vector<double> features;
    std::vector<int> labels;
    for (int i = 0; i < 60; ++i) {
        const int y = (i % 2 == 0) ? 1 : -1;
        for (std::size_t j = 0; j < kWidth; ++j) {
            features.push_back(rng.gaussian(0.4 * y, 1.0));
        }
        labels.push_back(y);
    }
    for (const Kernel kind : {Kernel::kRbf, Kernel::kLinear}) {
        SvmConfig config;
        config.kernel = kind;
        config.gamma = 0.7;
        BinarySvm svm(config);
        svm.train(features, kWidth, labels);
        const auto svs = svm.support_vectors();
        const auto alphas = svm.alphas();
        ASSERT_GE(alphas.size(), 3u);
        for (int probe = 0; probe < 20; ++probe) {
            std::vector<double> x(kWidth);
            for (double& v : x) {
                v = rng.gaussian(0.0, 1.5);
            }
            // One support vector at a time, features accumulated in order.
            double expected = svm.bias();
            for (std::size_t s = 0; s < alphas.size(); ++s) {
                double acc = 0.0;
                for (std::size_t j = 0; j < kWidth; ++j) {
                    const double sv = svs[s * kWidth + j];
                    if (kind == Kernel::kRbf) {
                        const double d = sv - x[j];
                        acc += d * d;
                    } else {
                        acc += sv * x[j];
                    }
                }
                expected += kind == Kernel::kRbf
                                ? alphas[s] * std::exp(-config.gamma * acc)
                                : alphas[s] * acc;
            }
            EXPECT_EQ(svm.decision(x), expected)
                << "kernel=" << static_cast<int>(kind) << " probe=" << probe;
        }
    }
}

TEST(BinarySvm, Validation) {
    BinarySvm svm;
    EXPECT_THROW(svm.decision(std::vector<double>{1.0}), Error);
    const std::vector<double> x = {0.0, 0.0, 1.0, 1.0};
    const std::vector<int> one_class = {1, 1};
    EXPECT_THROW(svm.train(x, 2, one_class), Error);
    const std::vector<int> bad_labels = {1, 2};
    EXPECT_THROW(svm.train(x, 2, bad_labels), Error);
    SvmConfig bad;
    bad.c = 0.0;
    EXPECT_THROW(BinarySvm{bad}, Error);
}

Dataset three_blobs(std::uint64_t seed, std::size_t per_class) {
    Rng rng(seed);
    Dataset data(2);
    const double centers[3][2] = {{0.0, 0.0}, {6.0, 0.0}, {0.0, 6.0}};
    for (int label = 10; label < 13; ++label) {
        for (std::size_t i = 0; i < per_class; ++i) {
            data.add(std::vector<double>{
                         centers[label - 10][0] + rng.gaussian(0.0, 0.6),
                         centers[label - 10][1] + rng.gaussian(0.0, 0.6)},
                     label);
        }
    }
    return data;
}

TEST(MulticlassSvm, ThreeClassBlobs) {
    MulticlassSvm svm;
    svm.train(three_blobs(11, 25));
    EXPECT_EQ(svm.predict(std::vector<double>{0.1, 0.3}), 10);
    EXPECT_EQ(svm.predict(std::vector<double>{6.2, -0.4}), 11);
    EXPECT_EQ(svm.predict(std::vector<double>{0.4, 5.8}), 12);
}

TEST(MulticlassSvm, VotesSumToPairCount) {
    MulticlassSvm svm;
    svm.train(three_blobs(13, 15));
    const auto votes = svm.votes(std::vector<double>{0.0, 0.0});
    ASSERT_EQ(votes.size(), 3u);
    int total = 0;
    for (const auto& [label, count] : votes) {
        total += count;
    }
    EXPECT_EQ(total, 3);  // 3 choose 2 pairwise machines
}

TEST(MulticlassSvm, ClassListExposed) {
    MulticlassSvm svm;
    svm.train(three_blobs(17, 10));
    ASSERT_EQ(svm.classes().size(), 3u);
    EXPECT_EQ(svm.classes()[0], 10);
    EXPECT_EQ(svm.classes()[2], 12);
}

TEST(MulticlassSvm, Validation) {
    MulticlassSvm svm;
    EXPECT_THROW(svm.predict(std::vector<double>{0.0, 0.0}), Error);
    EXPECT_THROW(svm.train(Dataset(2)), Error);
    Dataset single(1);
    single.add(std::vector<double>{1.0}, 0);
    single.add(std::vector<double>{2.0}, 0);
    EXPECT_THROW(svm.train(single), Error);  // needs >= 2 classes
}

TEST(MulticlassSvm, DeterministicGivenSeed) {
    const auto data = three_blobs(19, 20);
    MulticlassSvm a;
    MulticlassSvm b;
    a.train(data);
    b.train(data);
    Rng rng(21);
    for (int i = 0; i < 50; ++i) {
        const std::vector<double> x = {rng.uniform(-2.0, 8.0),
                                       rng.uniform(-2.0, 8.0)};
        EXPECT_EQ(a.predict(x), b.predict(x));
    }
}

}  // namespace
}  // namespace wimi::ml
