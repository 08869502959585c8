#include "serve/inference.hpp"

#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "core/material_feature.hpp"
#include "exec/parallel.hpp"
#include "obs/obs.hpp"

namespace wimi::serve {

InferenceEngine::InferenceEngine(TrainedModel model, std::string digest)
    : model_(std::move(model)) {
    model_.validate();
    info_.version = kModelCurrentVersion;
    info_.digest = std::move(digest);
    info_.feature_width = model_.feature_width();
    info_.class_count = model_.class_names.size();
    info_.pair_count = model_.pairs.size();
    info_.subcarrier_count = model_.subcarriers.size();
    info_.machine_count = model_.svm.machines().size();
    for (const auto& machine : model_.svm.machines()) {
        info_.support_vector_total += machine.svm.alphas().size();
    }
}

InferenceEngine InferenceEngine::load(const std::filesystem::path& path) {
    const auto start = std::chrono::steady_clock::now();
    ModelInfo info;
    TrainedModel model = load_model_file(path, &info);
    InferenceEngine engine(std::move(model), info.digest);
    engine.info_ = info;
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    WIMI_OBS_HISTOGRAM("serve.model_load_us",
                       static_cast<double>(elapsed.count()));
    WIMI_OBS_LOG_INFO("serve.inference", "model loaded",
                      obs::kv("path", path.string()),
                      obs::kv("digest", info.digest),
                      obs::kv("classes", info.class_count),
                      obs::kv("support_vectors",
                              info.support_vector_total),
                      obs::kv("load_us", elapsed.count()));
    return engine;
}

const std::string& InferenceEngine::class_name(int material_id) const {
    ensure(material_id >= 0 &&
               static_cast<std::size_t>(material_id) <
                   model_.class_names.size(),
           "InferenceEngine: class id outside the model's class names");
    return model_.class_names[static_cast<std::size_t>(material_id)];
}

std::vector<double> InferenceEngine::features(
    const csi::CsiSeries& baseline, const csi::CsiSeries& target) const {
    return core::extract_feature_vector(baseline, target, model_.pairs,
                                        model_.subcarriers, model_.feature);
}

Prediction InferenceEngine::predict_features(
    std::span<const double> features) const {
    ensure(features.size() == model_.feature_width(),
           "InferenceEngine: feature width does not match the model");
    // The entry check above covers the scaler too: a loaded model's
    // scaler width equals feature_width() (validated at restore time).
    std::vector<double> scaled(features.size());
    model_.scaler.transform_unchecked(features, scaled);
    Prediction prediction;
    prediction.material_id = model_.svm.predict(scaled);
    prediction.material_name = class_name(prediction.material_id);
    return prediction;
}

Prediction InferenceEngine::predict(const csi::CsiSeries& baseline,
                                    const csi::CsiSeries& target) const {
    return predict_features(features(baseline, target));
}

std::vector<Prediction> InferenceEngine::predict_batch(
    std::span<const Observation> batch, const BatchOptions& options) const {
    for (const Observation& obs : batch) {
        ensure(obs.baseline != nullptr && obs.target != nullptr,
               "InferenceEngine::predict_batch: null observation");
    }
    WIMI_OBS_COUNT("serve.batch.requests", 1);
    WIMI_OBS_HISTOGRAM("serve.batch.size", static_cast<double>(batch.size()));
    const auto start = std::chrono::steady_clock::now();
    exec::ExecOptions exec_options;
    exec_options.label = "serve.batch";
    exec_options.threads = options.threads;
    // Each observation is independent and writes only its own slot, so
    // the exec determinism contract holds trivially: no pre-fan-out
    // draws, index-ordered collection.
    std::vector<Prediction> predictions = exec::parallel_map<Prediction>(
        batch.size(),
        [&](std::size_t i) {
            return predict(*batch[i].baseline, *batch[i].target);
        },
        exec_options);
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    WIMI_OBS_HISTOGRAM("serve.batch.wall_us",
                       static_cast<double>(elapsed.count()));
    WIMI_OBS_LOG_DEBUG("serve.inference", "batch predicted",
                       ::wimi::obs::kv("batch_size", batch.size()),
                       ::wimi::obs::kv("wall_us", elapsed.count()));
    return predictions;
}

}  // namespace wimi::serve
