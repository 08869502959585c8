#include "stream/pipeline.hpp"

#include <chrono>

#include "common/error.hpp"
#include "core/wimi.hpp"
#include "obs/obs.hpp"

namespace wimi::stream {

Classifier make_classifier(const core::Wimi& wimi) {
    ensure(wimi.trained(),
           "make_classifier: Wimi instance is not trained");
    return [&wimi](std::span<const double> features) {
        core::IdentificationResult result = wimi.identify_features(features);
        return std::make_pair(result.material_id,
                              std::move(result.material_name));
    };
}

StreamingPipeline::StreamingPipeline(
    StreamConfig config, core::WindowFeatureExtractor extractor,
    Classifier classifier, std::optional<ml::PsiReference> psi_reference)
    : config_(config),
      extractor_(std::move(extractor)),
      classifier_(std::move(classifier)),
      ring_(config.window),
      planner_(config.window, config.hop),
      smoother_(config.smoothing) {
    ensure(static_cast<bool>(classifier_),
           "StreamingPipeline: classifier must be callable");
    if (psi_reference.has_value()) {
        gate_.emplace(std::move(*psi_reference), config_.psi);
    }
}

std::optional<WindowResult> StreamingPipeline::push(
    const csi::CsiFrame& frame) {
    ring_.push(frame);
    WIMI_OBS_COUNT("stream.frames", 1);
    const std::optional<WindowPlan> plan = planner_.on_frame();
    if (!plan.has_value()) {
        return std::nullopt;
    }
    return evaluate(*plan);
}

WindowResult StreamingPipeline::evaluate(const WindowPlan& plan) {
    WIMI_TRACE_SPAN("stream.window");
    const auto started = std::chrono::steady_clock::now();

    ring_.window_into(plan.frame_count, scratch_window_);

    WindowResult result;
    result.window_index = plan.window_index;
    result.first_frame = plan.first_frame;
    result.frame_count = plan.frame_count;
    result.first_timestamp_s = scratch_window_.frames.front().timestamp_s;
    result.last_timestamp_s = scratch_window_.frames.back().timestamp_s;

    result.features = extractor_.extract(scratch_window_);

    auto [label, name] = classifier_(result.features);
    result.raw_label = label;
    result.raw_name = std::move(name);
    if (result.raw_label >= 0) {
        names_[result.raw_label] = result.raw_name;
    }

    if (gate_.has_value()) {
        gate_->add(result.features);
        if (gate_->ready()) {
            result.psi = gate_->psi();
            result.psi_valid = true;
            result.drift_gated = result.psi > gate_->config().threshold;
        }
    }

    if (result.drift_gated) {
        ++drift_gated_;
        WIMI_OBS_COUNT("stream.drift.gated", 1);
        // Withhold the label from the smoother: keep reporting the last
        // trusted stable label, never emit a change off extrapolation.
        result.stable_label = smoother_.stable_label();
        result.changed = false;
    } else {
        const SmoothedDecision smoothed = smoother_.observe(result.raw_label);
        result.stable_label = smoothed.stable_label;
        result.changed = smoothed.changed;
    }
    if (result.stable_label == result.raw_label) {
        result.stable_name = result.raw_name;
    } else if (result.stable_label >= 0) {
        // The smoother can lag the raw label; the memo of names seen
        // from the classifier resolves it (the stable label was a raw
        // label of some earlier window by construction).
        const auto it = names_.find(result.stable_label);
        if (it != names_.end()) {
            result.stable_name = it->second;
        }
    }

    WIMI_OBS_COUNT("stream.windows", 1);
    if (result.changed) {
        WIMI_OBS_COUNT("stream.changes", 1);
        WIMI_OBS_LOG_INFO(
            "stream.pipeline", "stable label changed",
            ::wimi::obs::kv("window", result.window_index),
            ::wimi::obs::kv("label", result.stable_label),
            ::wimi::obs::kv("raw", result.raw_name));
    }
    WIMI_OBS_GAUGE_SET("stream.ring.fill", static_cast<double>(ring_.size()));
    if (result.psi_valid) {
        WIMI_OBS_GAUGE_SET("stream.psi", result.psi);
    }
    if (WIMI_OBS_ENABLED()) {
        const double wall_us =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - started)
                .count();
        WIMI_OBS_HISTOGRAM("stream.window.wall_us", wall_us);
    }
    return result;
}

void StreamingPipeline::reset() {
    ring_.clear();
    planner_.reset();
    smoother_.reset();
    if (gate_.has_value()) {
        gate_->reset();
    }
    drift_gated_ = 0;
}

}  // namespace wimi::stream
