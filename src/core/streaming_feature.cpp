#include "core/streaming_feature.hpp"

#include "common/error.hpp"
#include "core/wimi.hpp"

namespace wimi::core {

namespace {

BaselineProfile make_profile(const csi::CsiSeries& baseline,
                             std::vector<AntennaPair> pairs,
                             std::vector<std::size_t> subcarriers,
                             const FeatureConfig& config) {
    ensure(!baseline.empty(),
           "WindowFeatureExtractor: baseline must have >= 1 packet");
    ensure(!pairs.empty(), "WindowFeatureExtractor: need >= 1 antenna pair");
    ensure(!subcarriers.empty(),
           "WindowFeatureExtractor: need >= 1 subcarrier");
    return BaselineProfile(csi::CsiSoa(baseline), std::move(pairs),
                           std::move(subcarriers), config);
}

}  // namespace

WindowFeatureExtractor::WindowFeatureExtractor(
    csi::CsiSeries baseline, std::vector<AntennaPair> pairs,
    std::vector<std::size_t> subcarriers, FeatureConfig config)
    : profile_(make_profile(baseline, std::move(pairs),
                            std::move(subcarriers), config)) {}

std::vector<double> WindowFeatureExtractor::extract(
    const csi::CsiSeries& window) const {
    // The batch overload builds this same profile per call and runs the
    // same profile overload on a fresh target SoA: bit-identical output.
    if (target_) {
        target_->assign(window);
    } else {
        target_.emplace(window);
    }
    return extract_feature_vector(profile_, *target_);
}

WindowFeatureExtractor make_window_extractor(const Wimi& wimi,
                                             csi::CsiSeries baseline) {
    ensure(wimi.calibrated(),
           "make_window_extractor: Wimi instance is not calibrated");
    return WindowFeatureExtractor(std::move(baseline), wimi.pairs(),
                                  wimi.subcarriers(),
                                  wimi.config().feature);
}

}  // namespace wimi::core
