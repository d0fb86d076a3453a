// Two-stage detector baselines — the Faster/Mask R-CNN comparison set of
// Table V.
//
// Architecture mirrors the classic two-stage recipe:
//   1. Region proposals: dense multi-scale sliding windows scored by a cheap
//      class-agnostic objectness (ring contrast + saliency pop-out); the
//      top-K survive a loose NMS.
//   2. Per-region head: RoI-pooled features (an NxN grid of channel means
//      per proposal — the integral-image analogue of RoIPool) concatenated
//      with the shared candidate descriptor, classified and box-regressed by
//      an MLP.
//
// Two backbones and two heads combine into the paper's four baselines:
//   * V backbone ("VGG16-lite"): luma + edge channels only, 3x3 RoI grid.
//   * R backbone ("ResNet50-lite"): all five channels, deeper MLP.
//   * F head ("Faster R-CNN"): classification + one box regression pass.
//   * M head ("Mask R-CNN"): adds a mask pass — the flood-fill snap of
//     src/cv/refine.h — which is what lets it localize tiny options at the
//     paper's IoU 0.9 bar.
//
// Expected behaviour (and what Table V's bench verifies): accuracy ordering
// M+R > M+V > F+R ~ F+V, all below the one-stage detector, and every
// variant noticeably slower per image because of the dense proposal scan
// and the per-region pooled features.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cv/detector.h"
#include "cv/features.h"
#include "cv/one_stage.h"
#include "cv/refine.h"
#include "dataset/dataset.h"
#include "nn/mlp.h"

namespace darpa::cv {

enum class Backbone { kV, kR };
enum class HeadKind { kFaster, kMask };

[[nodiscard]] std::string twoStageModelName(HeadKind head, Backbone backbone);

struct TwoStageConfig {
  Backbone backbone = Backbone::kR;
  HeadKind head = HeadKind::kMask;
  /// Window shapes reused from the one-stage anchor family plus scale
  /// variants; strides follow Anchor::stride().
  std::vector<Anchor> windowShapes = {{16, 16}, {24, 24}, {48, 16},
                                      {72, 24}, {180, 44}, {230, 56},
                                      {110, 110}, {150, 150}};
  int featureScale = 2;
  /// Proposals kept after objectness ranking.
  int maxProposals = 1500;
  double proposalNmsIou = 0.7;
  int roiGrid = 4;  ///< RoI pooling grid (NxN per enabled channel).
  float confidenceThreshold = 0.8f;
  double nmsIou = 0.45;
  RefineConfig refine;
};

struct TwoStageTrainConfig {
  int epochs = 20;
  int lrDecayEvery = 8;
  int negativesPerImage = 24;
  int benignImages = 100;
  std::uint64_t seed = 11;
};

class TwoStageDetector : public Detector {
 public:
  static TwoStageDetector train(const dataset::AuiDataset& data,
                                const TwoStageConfig& config,
                                const TwoStageTrainConfig& trainConfig);

  [[nodiscard]] std::vector<Detection> detect(
      const gfx::Bitmap& screenshot) const override;
  [[nodiscard]] double costMacsPerImage() const override;

  [[nodiscard]] const TwoStageConfig& config() const { return config_; }
  [[nodiscard]] std::string name() const {
    return twoStageModelName(config_.head, config_.backbone);
  }

  /// Proposal boxes for one image — exposed for tests.
  [[nodiscard]] std::vector<Rect> proposals(const gfx::Bitmap& screenshot) const;

 private:
  explicit TwoStageDetector(TwoStageConfig config) : config_(std::move(config)) {}

  [[nodiscard]] ChannelSet backboneChannels() const;
  /// Proposals over an already-built FeatureMap — detect() and the training
  /// collect loop share one map instead of each building a second identical
  /// one just for the proposal scan.
  [[nodiscard]] std::vector<Rect> proposalsFromMap(const FeatureMap& map,
                                                   Size size) const;
  /// Length of the per-region descriptor for this map's enabled channels.
  [[nodiscard]] int regionFeatureDim(const FeatureMap& map) const;
  void regionFeaturesInto(const FeatureMap& map, const Rect& box,
                          std::span<float> out) const;
  [[nodiscard]] std::vector<float> regionFeatures(const FeatureMap& map,
                                                  const Rect& box) const;

  TwoStageConfig config_;
  std::unique_ptr<nn::Mlp> head_;
};

}  // namespace darpa::cv
