// Tests for the serving path: InferenceEngine over a persisted model.
//
// The properties that make "train once, infer many" trustworthy: a
// loaded engine predicts exactly like the training process did, and batched
// prediction is bit-identical to serial at every thread width.
#include "serve/inference.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "common/error.hpp"
#include "serve/model.hpp"
#include "serve/model_io.hpp"
#include "sim/harness.hpp"
#include "sim/scenario.hpp"
#include "scratch_dir.hpp"

namespace wimi::serve {
namespace {

/// A small real experiment: 4 liquids x 5 repetitions trains in well
/// under a second and still produces a non-trivial 6-machine ensemble.
sim::ExperimentConfig small_config(std::uint64_t seed) {
    sim::ExperimentConfig config;
    config.liquids = {rf::Liquid::kPureWater, rf::Liquid::kMilk,
                      rf::Liquid::kHoney, rf::Liquid::kOil};
    config.repetitions = 5;
    config.seed = seed;
    return config;
}

const TrainedModel& trained_model() {
    static const TrainedModel model =
        sim::train_experiment_model(small_config(7));
    return model;
}

TEST(Inference, SnapshotRequiresTrainedSvm) {
    core::Wimi untrained;
    EXPECT_THROW(snapshot_model(untrained), Error);
    core::WimiConfig knn_config;
    knn_config.classifier = core::ClassifierKind::kKnn;
    core::Wimi knn(knn_config);
    EXPECT_THROW(snapshot_model(knn), Error);
}

TEST(Inference, PredictsCapturedMeasurements) {
    const InferenceEngine engine(trained_model());
    const sim::ExperimentConfig eval = small_config(8);
    const sim::ExperimentResult result =
        sim::evaluate_with_model(engine, eval);
    EXPECT_EQ(result.confusion.total(), 20u);
    // Unseen captures of well-separated liquids: far above chance.
    EXPECT_GT(result.accuracy, 0.5);
}

TEST(Inference, BatchIsBitIdenticalAcrossThreadWidths) {
    const InferenceEngine engine(trained_model());
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                      std::size_t{8}}) {
        sim::ExperimentConfig serial = small_config(9);
        serial.threads = 1;
        sim::ExperimentConfig parallel = small_config(9);
        parallel.threads = threads;
        const sim::ModelPredictions a =
            sim::predict_experiment(engine, serial);
        const sim::ModelPredictions b =
            sim::predict_experiment(engine, parallel);
        EXPECT_EQ(a.predicted, b.predicted) << "threads=" << threads;
        EXPECT_EQ(a.truth, b.truth);
    }
}

TEST(Inference, LoadedEnginePredictsLikeTheOriginal) {
    const auto path = testutil::scratch_dir() /
                      "wimi_inference_roundtrip.wmdl";
    save_model_file(path, trained_model());
    const InferenceEngine original(trained_model());
    const InferenceEngine loaded = InferenceEngine::load(path);
    EXPECT_EQ(loaded.digest(), model_file_digest(path));

    const sim::ExperimentConfig eval = small_config(10);
    const sim::ModelPredictions a = sim::predict_experiment(original, eval);
    const sim::ModelPredictions b = sim::predict_experiment(loaded, eval);
    EXPECT_EQ(a.predicted, b.predicted);
    std::filesystem::remove(path);
}

TEST(Inference, SinglePredictMatchesBatch) {
    const InferenceEngine engine(trained_model());
    const sim::ExperimentConfig config = small_config(11);
    const sim::Scenario scenario(config.scenario);
    std::vector<sim::MeasurementPair> captures;
    for (std::uint64_t s = 0; s < 4; ++s) {
        captures.push_back(scenario.capture_measurement(
            config.liquids[static_cast<std::size_t>(s)], 100 + s));
    }
    std::vector<Observation> batch;
    for (const sim::MeasurementPair& capture : captures) {
        batch.push_back({&capture.baseline, &capture.target});
    }
    const std::vector<Prediction> batched = engine.predict_batch(batch);
    ASSERT_EQ(batched.size(), captures.size());
    for (std::size_t i = 0; i < captures.size(); ++i) {
        const Prediction single =
            engine.predict(captures[i].baseline, captures[i].target);
        EXPECT_EQ(single.material_id, batched[i].material_id);
        EXPECT_EQ(single.material_name, batched[i].material_name);
    }
}

TEST(Inference, RejectsMalformedInputs) {
    const InferenceEngine engine(trained_model());
    // Null observation.
    const std::vector<Observation> bad(1);
    EXPECT_THROW(engine.predict_batch(bad), Error);
    // Wrong feature width.
    const std::vector<double> narrow(engine.model().feature_width() - 1,
                                     0.0);
    EXPECT_THROW(engine.predict_features(narrow), Error);
    // Class id outside the model.
    EXPECT_THROW(engine.class_name(-1), Error);
    EXPECT_THROW(engine.class_name(1000), Error);
}

TEST(Inference, MismatchedLiquidSetRejected) {
    const InferenceEngine engine(trained_model());
    sim::ExperimentConfig wrong = small_config(12);
    wrong.liquids = {rf::Liquid::kPureWater, rf::Liquid::kCoke};
    EXPECT_THROW(sim::predict_experiment(engine, wrong), Error);
    sim::ExperimentConfig reordered = small_config(12);
    reordered.liquids = {rf::Liquid::kMilk, rf::Liquid::kPureWater,
                         rf::Liquid::kHoney, rf::Liquid::kOil};
    EXPECT_THROW(sim::predict_experiment(engine, reordered), Error);
}

/// Save -> load -> predict must be bit-identical to the in-memory model
/// in every deployment environment, since the impairment state baked in
/// at training time differs between them.
class InferenceEnvironment
    : public ::testing::TestWithParam<rf::Environment> {};

TEST_P(InferenceEnvironment, RoundTripPredictsBitIdentically) {
    sim::ExperimentConfig config = small_config(13);
    config.scenario.environment = GetParam();
    config.liquids = {rf::Liquid::kPureWater, rf::Liquid::kMilk,
                      rf::Liquid::kHoney};
    config.repetitions = 4;
    const TrainedModel model = sim::train_experiment_model(config);

    const auto path = testutil::scratch_dir() /
                      "wimi_inference_env_roundtrip.wmdl";
    save_model_file(path, model);
    const InferenceEngine original(model);
    const InferenceEngine loaded = InferenceEngine::load(path);
    std::filesystem::remove(path);

    sim::ExperimentConfig eval = config;
    eval.seed = 14;
    const sim::ModelPredictions a = sim::predict_experiment(original, eval);
    const sim::ModelPredictions b = sim::predict_experiment(loaded, eval);
    EXPECT_EQ(a.predicted, b.predicted);
    EXPECT_EQ(a.truth, b.truth);
    EXPECT_EQ(a.class_names, b.class_names);
}

INSTANTIATE_TEST_SUITE_P(AllEnvironments, InferenceEnvironment,
                         ::testing::Values(rf::Environment::kHall,
                                           rf::Environment::kLab,
                                           rf::Environment::kLibrary));

}  // namespace
}  // namespace wimi::serve
