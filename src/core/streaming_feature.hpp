// Incremental entry points for the streaming pipeline (DESIGN.md §13).
//
// The batch path recomputes everything from two whole CsiSeries per
// identify() call. A sliding-window stream re-evaluates the same fixed
// baseline against a different target window every hop, so one piece of
// state is worth keeping across windows:
//
//   * WindowFeatureExtractor — the baseline half of the feature (a
//     core::BaselineProfile: the stable antenna ratio of every selected
//     cell) is computed once and reused for every window; per window
//     only the target half runs, transposed into one target SoA whose
//     storage is reused across windows. Numeric contract: extract() is
//     bit-identical to core::extract_feature_vector(baseline, window,
//     ...) — that overload builds the same profile and runs the same
//     loop — and therefore to Wimi::features on the same inputs.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/material_feature.hpp"
#include "csi/frame.hpp"
#include "csi/soa.hpp"

namespace wimi::core {

class Wimi;

/// Fixed-baseline, per-window feature extraction with the baseline half
/// computed once.
class WindowFeatureExtractor {
public:
    /// Builds the baseline profile of `baseline` for the given selection;
    /// the series itself is not kept. Throws on an empty baseline or
    /// empty pairs/subcarriers, and where BaselineProfile throws.
    WindowFeatureExtractor(csi::CsiSeries baseline,
                           std::vector<AntennaPair> pairs,
                           std::vector<std::size_t> subcarriers,
                           FeatureConfig config);

    /// Feature vector for one target window — bit-identical to the batch
    /// extract_feature_vector(baseline, window, pairs, subcarriers,
    /// config) call on the same frames. Reuses the extractor's target
    /// buffer, so concurrent calls on one extractor are not safe.
    std::vector<double> extract(const csi::CsiSeries& window) const;

    const std::vector<AntennaPair>& pairs() const {
        return profile_.pairs();
    }
    const std::vector<std::size_t>& subcarriers() const {
        return profile_.subcarriers();
    }
    const FeatureConfig& config() const { return profile_.config(); }

private:
    BaselineProfile profile_;
    mutable std::optional<csi::CsiSoa> target_;
};

/// Builds an extractor from a calibrated Wimi instance: same pairs,
/// subcarriers, and feature settings the facade's identify() would use,
/// so streaming decisions match batch decisions. Throws unless
/// wimi.calibrated().
WindowFeatureExtractor make_window_extractor(const Wimi& wimi,
                                             csi::CsiSeries baseline);

}  // namespace wimi::core
