#include "stream/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <string>

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
      smoother_(config.smoothing) {
    ensure(config_.window >= 1, "StreamingPipeline: window must be >= 1");
    ensure(config_.hop <= config_.window,
           "StreamingPipeline: hop must be <= window (windows must "
           "overlap or tile; gaps would drop frames)");
    ensure(static_cast<bool>(classifier_),
           "StreamingPipeline: classifier must be callable");
    window_.frames.resize(config_.window);
    if (psi_reference.has_value()) {
        gate_.emplace(std::move(*psi_reference), config_.psi);
    }
}

std::optional<WindowResult> StreamingPipeline::push(
    const csi::CsiFrame& frame) {
    ensure(frame.antenna_count() >= 1 && frame.subcarrier_count() >= 1,
           "StreamingPipeline::push: empty frame");
    if (antennas_ == 0) {
        antennas_ = frame.antenna_count();
        subcarriers_ = frame.subcarrier_count();
    } else if (frame.antenna_count() != antennas_ ||
               frame.subcarrier_count() != subcarriers_) {
        // Built only on failure: push() must not allocate per frame.
        fail("StreamingPipeline::push: frame geometry " +
             std::to_string(frame.antenna_count()) + "x" +
             std::to_string(frame.subcarrier_count()) +
             " does not match stream geometry " + std::to_string(antennas_) +
             "x" + std::to_string(subcarriers_));
    }
    // Copy-assignment reuses the slot's payload buffer (same shape).
    window_.frames[next_] = frame;
    next_ = (next_ + 1) % config_.window;
    ++frames_seen_;
    WIMI_OBS_COUNT("stream.frames", 1);

    if (frames_seen_ < config_.window) {
        return std::nullopt;
    }
    const std::uint64_t since_first = frames_seen_ - config_.window;
    const bool due = config_.hop == 0 ? since_first == 0
                                      : since_first % config_.hop == 0;
    if (!due) {
        return std::nullopt;
    }
    return evaluate();
}

WindowResult StreamingPipeline::evaluate() {
    WIMI_TRACE_SPAN("stream.window");
    const auto started = std::chrono::steady_clock::now();

    // The window is full, so slot next_ holds its oldest frame.
    std::rotate(window_.frames.begin(),
                window_.frames.begin() + static_cast<std::ptrdiff_t>(next_),
                window_.frames.end());
    next_ = 0;

    WindowResult result;
    result.window_index = windows_emitted_++;
    result.first_frame = frames_seen_ - config_.window;
    result.frame_count = config_.window;
    result.first_timestamp_s = window_.frames.front().timestamp_s;
    result.last_timestamp_s = window_.frames.back().timestamp_s;

    result.features = extractor_.extract(window_);

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
    next_ = 0;
    frames_seen_ = 0;
    windows_emitted_ = 0;
    smoother_.reset();
    if (gate_.has_value()) {
        gate_->reset();
    }
    drift_gated_ = 0;
}

}  // namespace wimi::stream
