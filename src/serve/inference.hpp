// Load-once, predict-many inference over a persisted wimi.model.v1.
//
// The training path (core::Wimi) owns enrollment and calibration; the
// serving path answers "what material is this?" for a stream of
// measurements against a model that was trained earlier — possibly in a
// different process, on a different day. An InferenceEngine:
//
//   - holds one immutable TrainedModel (loaded via model_io, or
//     snapshotted in-process) plus its artifact digest;
//   - extracts features with the *persisted* calibration state, so a
//     prediction never depends on local Wimi configuration;
//   - batches independent measurements through exec::parallel_map under
//     the repo determinism contract — threads=N is bit-identical to
//     threads=1, which runs the plain serial loop.
//
// Every load() reads the artifact's current bytes, so a model retrained
// in place is what the next load (and the daemon's hot swap) serves.
// Obs: `serve.model_load_us` (histogram),
// `serve.batch.requests` (counter), `serve.batch.size` and
// `serve.batch.wall_us` (histograms), plus the exec-layer
// `exec.serve.batch.*` stage metrics from the fan-out itself.
#pragma once

#include <cstddef>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "csi/frame.hpp"
#include "serve/model.hpp"
#include "serve/model_io.hpp"

namespace wimi::serve {

/// One (baseline, target) capture pair to classify. Non-owning: the
/// series must outlive the predict call.
struct Observation {
    const csi::CsiSeries* baseline = nullptr;
    const csi::CsiSeries* target = nullptr;
};

/// One classification answer.
struct Prediction {
    int material_id = -1;
    std::string material_name;
};

/// Options for batched prediction.
struct BatchOptions {
    /// Fan-out width: 0 = exec pool default / WIMI_THREADS, 1 = serial
    /// legacy path. Results are bit-identical at every width.
    std::size_t threads = 0;
};

/// Immutable trained model + prediction entry points.
class InferenceEngine {
public:
    /// Wraps an already-materialized model (validated). `digest` is the
    /// artifact identity for manifests; empty for in-process snapshots.
    explicit InferenceEngine(TrainedModel model, std::string digest = {});

    /// Loads a wimi.model.v1 artifact. Throws wimi::Error on any damage.
    /// Records `serve.model_load_us`.
    static InferenceEngine load(const std::filesystem::path& path);

    const TrainedModel& model() const { return model_; }
    const ModelInfo& info() const { return info_; }

    /// Content digest of the source artifact (ModelInfo::digest; "" for
    /// in-process snapshots).
    const std::string& digest() const { return info_.digest; }

    /// Material name for a class id; throws wimi::Error when out of range.
    const std::string& class_name(int material_id) const;

    /// Extracts the model's feature vector for one measurement, using the
    /// persisted calibration (pairs, subcarriers, feature settings).
    std::vector<double> features(const csi::CsiSeries& baseline,
                                 const csi::CsiSeries& target) const;

    /// Classifies a pre-extracted (unscaled) feature vector.
    Prediction predict_features(std::span<const double> features) const;

    /// Classifies one measurement.
    Prediction predict(const csi::CsiSeries& baseline,
                       const csi::CsiSeries& target) const;

    /// Classifies a batch of independent measurements. Output order
    /// matches input order and is bit-identical at every thread width
    /// (exec determinism contract). Throws on any null Observation.
    std::vector<Prediction> predict_batch(
        std::span<const Observation> batch,
        const BatchOptions& options = {}) const;

private:
    TrainedModel model_;
    ModelInfo info_;
};

}  // namespace wimi::serve
