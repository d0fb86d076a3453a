// The per-candidate detect, kept as a test oracle. OneStageDetector::detect
// fills, scores and decodes the anchor grid one head tile at a time; this
// reference builds one descriptor vector and makes one head call per
// candidate, then applies the same thresholds, decode, NMS and flood-fill
// refinement. cv_test.cpp's detect parity tests compare detect() with it
// bit for bit, and bench_detector_hotpath uses it as the byte-identity
// reference and as the denominator of its detect_speedup.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <vector>

#include "cv/detection.h"
#include "cv/features.h"
#include "cv/one_stage.h"
#include "cv/refine.h"
#include "gfx/bitmap.h"
#include "nn/losses.h"

namespace darpa::cv {

/// The descriptor of one candidate box, as a fresh vector.
inline std::vector<float> candidateFeatures(const FeatureMap& map,
                                            const Rect& box) {
  std::vector<float> f(kCandidateFeatureDim);
  candidateFeaturesInto(map, box, f);
  return f;
}

/// One candidate's six head outputs from its descriptor.
using CandidateScore =
    std::function<std::vector<float>(std::span<const float>)>;

/// detect() one candidate at a time. `score` defaults to the fp32 head's
/// forward(); pass the int8 head's to check a quantized detector. The grid
/// is enumerated from config().anchors in candidateBoxes() order.
inline std::vector<Detection> perCandidateDetect(
    const OneStageDetector& detector, const gfx::Bitmap& image,
    const CandidateScore& score = {}) {
  const OneStageConfig& config = detector.config();
  const FeatureMap map(image, config.channels, config.featureScale);
  std::vector<Detection> raw;
  for (const Anchor& anchor : config.anchors) {
    const int stride = anchor.stride();
    for (int cy = stride / 2; cy < image.height(); cy += stride) {
      for (int cx = stride / 2; cx < image.width(); cx += stride) {
        const std::vector<float> features = candidateFeatures(
            map, {cx - anchor.width / 2, cy - anchor.height / 2, anchor.width,
                  anchor.height});
        const std::vector<float> out =
            score ? score(features) : detector.head().forward(features);
        const float confAgo = nn::sigmoid(out[0]);
        const float confUpo = nn::sigmoid(out[1]);
        const bool agoFires = confAgo >= config.confidenceThresholdAgo;
        const bool upoFires = confUpo >= config.confidenceThresholdUpo;
        if (!agoFires && !upoFires) continue;
        const float dx = std::clamp(out[2], -2.0f, 2.0f);
        const float dy = std::clamp(out[3], -2.0f, 2.0f);
        const float dw = std::clamp(out[4], -2.0f, 2.0f);
        const float dh = std::clamp(out[5], -2.0f, 2.0f);
        const float w = static_cast<float>(anchor.width) * std::exp(dw);
        const float h = static_cast<float>(anchor.height) * std::exp(dh);
        Detection det;
        det.box = RectF{static_cast<float>(cx) + dx * stride - w / 2,
                        static_cast<float>(cy) + dy * stride - h / 2, w, h}
                      .toRect();
        det.label = (agoFires && (!upoFires || confAgo >= confUpo))
                        ? dataset::BoxLabel::kAgo
                        : dataset::BoxLabel::kUpo;
        det.confidence =
            std::max(agoFires ? confAgo : 0.0f, upoFires ? confUpo : 0.0f);
        raw.push_back(det);
      }
    }
  }
  std::vector<Detection> refined;
  for (Detection& det : nonMaxSuppression(std::move(raw), config.nmsIou)) {
    if (const auto snapped = snapToRegion(image, det.box, config.refine)) {
      det.box = *snapped;
      refined.push_back(det);
    } else if (!config.dropUnrefined) {
      refined.push_back(det);
    }
  }
  return nonMaxSuppression(std::move(refined), 0.8);
}

}  // namespace darpa::cv
