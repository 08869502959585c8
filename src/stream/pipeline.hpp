// The streaming windowed identification pipeline (DESIGN.md §13).
//
// Frames arrive one at a time (from a live capture, a TraceReader, or a
// TraceTailer following a growing file); the pipeline holds the newest
// `window` frames in one fixed-size CsiSeries. The newest W frames are
// scored every H arrivals: the first window is due once W frames have
// been pushed and another each H frames after that, so window j covers
// global frames [j*H, j*H + W); hop == 0 emits exactly one window, the
// moment W frames exist. A due window is put oldest-first in place and
// its material feature vector extracted against the fixed baseline
// (WindowFeatureExtractor — bit-identical to the batch path), then
// classified and folded through PSI drift gating and decision
// smoothing. Memory is O(window) regardless of stream length.
//
// Parity contract: with window == trace length and hop == 0 the single
// emitted window contains exactly the frames the batch pipeline sees, so
// `features` is bit-identical to Wimi::features(baseline, trace) and the
// raw label equals Wimi::identify's. Tests/test_stream_parity.cpp holds
// this at double granularity.
//
// Drift gating: when the recent feature population has drifted off the
// classifier's training distribution (OnlinePsiGate), per-window labels
// are extrapolation — the pipeline still reports the raw label but does
// NOT feed it to the smoother, so a drifting stream cannot fabricate
// "material changed" events. Windows suppressed this way are flagged
// `drift_gated`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/streaming_feature.hpp"
#include "csi/frame.hpp"
#include "ml/drift.hpp"
#include "stream/smoother.hpp"

namespace wimi::core {
class Wimi;
}

namespace wimi::stream {

/// Classifies one feature vector: (label id, label name).
using Classifier =
    std::function<std::pair<int, std::string>(std::span<const double>)>;

/// Adapts a trained core::Wimi into a Classifier. The Wimi instance must
/// outlive the returned functor.
Classifier make_classifier(const core::Wimi& wimi);

struct StreamConfig {
    std::size_t window = 64;  ///< frames per evaluation (>= 1)
    std::size_t hop = 16;     ///< frames between evaluations; 0 = once
    SmootherConfig smoothing;
    /// PSI pool settings; the gate only exists when a PsiReference is
    /// handed to the pipeline.
    ml::OnlinePsiGate::Config psi;
};

/// Everything one evaluated window yields.
struct WindowResult {
    std::uint64_t window_index = 0;
    std::uint64_t first_frame = 0;  ///< global index of the oldest frame
    std::size_t frame_count = 0;
    double first_timestamp_s = 0.0;
    double last_timestamp_s = 0.0;
    std::vector<double> features;
    int raw_label = -1;
    std::string raw_name;
    int stable_label = -1;
    std::string stable_name;
    bool changed = false;  ///< stable label flipped at this window
    /// Mean PSI of the recent feature pool vs the training reference;
    /// NaN until the gate is present and warmed up.
    double psi = 0.0;
    bool psi_valid = false;
    bool drift_gated = false;  ///< label withheld from the smoother
};

class StreamingPipeline {
public:
    /// `psi_reference` enables drift gating when provided; pass
    /// std::nullopt to smooth every window unconditionally. Throws
    /// wimi::Error unless window >= 1 and hop <= window.
    StreamingPipeline(StreamConfig config,
                      core::WindowFeatureExtractor extractor,
                      Classifier classifier,
                      std::optional<ml::PsiReference> psi_reference =
                          std::nullopt);

    /// Feeds one frame; returns the evaluated window when this arrival
    /// completes one per the window/hop schedule. The first frame ever
    /// pushed fixes the antenna and subcarrier counts; a frame with zero
    /// or different counts throws wimi::Error, also after reset().
    std::optional<WindowResult> push(const csi::CsiFrame& frame);

    const StreamConfig& config() const { return config_; }
    std::uint64_t frames_consumed() const { return frames_seen_; }
    std::uint64_t windows_emitted() const { return windows_emitted_; }
    std::uint64_t changes() const { return smoother_.changes(); }
    std::uint64_t drift_gated_windows() const { return drift_gated_; }

    /// Current stable label (-1 before the first smoothed window).
    int stable_label() const { return smoother_.stable_label(); }

    const core::WindowFeatureExtractor& extractor() const {
        return extractor_;
    }

    /// Forgets all stream state (held frames, schedule, smoother, PSI
    /// pool); the baseline, classifier, config and pinned frame counts
    /// survive.
    void reset();

private:
    WindowResult evaluate();

    StreamConfig config_;
    core::WindowFeatureExtractor extractor_;
    Classifier classifier_;
    DecisionSmoother smoother_;
    std::optional<ml::OnlinePsiGate> gate_;
    /// `window` slots, each frame's buffer reused by copy-assignment.
    /// Slot next_ takes the next arrival; once the window is full it is
    /// the oldest frame, and evaluate() rotates it to the front.
    csi::CsiSeries window_;
    std::size_t next_ = 0;
    std::size_t antennas_ = 0;  ///< pinned by the first frame pushed
    std::size_t subcarriers_ = 0;
    std::uint64_t frames_seen_ = 0;
    std::uint64_t windows_emitted_ = 0;
    std::map<int, std::string> names_;  ///< label -> name memo
    std::uint64_t drift_gated_ = 0;
};

}  // namespace wimi::stream
