#include "cv/two_stage.h"

#include <algorithm>
#include <cmath>

#include "nn/losses.h"
#include "util/rng.h"

namespace darpa::cv {

std::string twoStageModelName(HeadKind head, Backbone backbone) {
  std::string name =
      head == HeadKind::kFaster ? "Faster RCNN-like" : "Mask RCNN-like";
  name += backbone == Backbone::kV ? "+V16" : "+R50";
  return name;
}

ChannelSet TwoStageDetector::backboneChannels() const {
  if (config_.backbone == Backbone::kV) {
    const Channel channels[] = {Channel::kLuma, Channel::kEdge};
    return ChannelSet::only(channels);
  }
  return ChannelSet::all();
}

int TwoStageDetector::regionFeatureDim(const FeatureMap& map) const {
  return kCandidateFeatureDim +
         config_.roiGrid * config_.roiGrid * map.channels().count();
}

void TwoStageDetector::regionFeaturesInto(const FeatureMap& map,
                                          const Rect& box,
                                          std::span<float> out) const {
  // Shared descriptor + RoI-pooled NxN channel means.
  candidateFeaturesInto(map, box, out.first(kCandidateFeatureDim));
  std::size_t k = kCandidateFeatureDim;
  const int n = config_.roiGrid;
  for (int c = 0; c < kChannelCount; ++c) {
    if (!map.channels().enabled(static_cast<Channel>(c))) continue;
    for (int gy = 0; gy < n; ++gy) {
      for (int gx = 0; gx < n; ++gx) {
        const Rect cell{box.x + gx * box.width / n,
                        box.y + gy * box.height / n,
                        std::max(box.width / n, 1),
                        std::max(box.height / n, 1)};
        out[k++] = map.boxMean(static_cast<Channel>(c), cell);
      }
    }
  }
}

std::vector<float> TwoStageDetector::regionFeatures(const FeatureMap& map,
                                                    const Rect& box) const {
  std::vector<float> f(static_cast<std::size_t>(regionFeatureDim(map)));
  regionFeaturesInto(map, box, f);
  return f;
}

std::vector<Rect> TwoStageDetector::proposals(
    const gfx::Bitmap& screenshot) const {
  const FeatureMap map(screenshot, backboneChannels(), config_.featureScale);
  return proposalsFromMap(map, screenshot.size());
}

std::vector<Rect> TwoStageDetector::proposalsFromMap(const FeatureMap& map,
                                                     Size size) const {
  struct Scored {
    Rect box;
    float score;
  };
  std::vector<Scored> windows;
  for (const Anchor& shape : config_.windowShapes) {
    const int stride = shape.stride();
    for (int cy = stride / 2; cy < size.height; cy += stride) {
      for (int cx = stride / 2; cx < size.width; cx += stride) {
        const Rect box{cx - shape.width / 2, cy - shape.height / 2,
                       shape.width, shape.height};
        // Class-agnostic objectness: pop-out of the region vs its ring.
        const float score =
            std::fabs(map.ringContrast(Channel::kContrast, box)) +
            std::fabs(map.ringContrast(Channel::kEdge, box)) +
            std::fabs(map.ringContrast(Channel::kLuma, box));
        windows.push_back(Scored{box, score});
      }
    }
  }
  std::sort(windows.begin(), windows.end(),
            [](const Scored& a, const Scored& b) { return a.score > b.score; });
  // Loose NMS then top-K.
  std::vector<Rect> kept;
  for (const Scored& w : windows) {
    if (static_cast<int>(kept.size()) >= config_.maxProposals) break;
    const bool dup = std::any_of(kept.begin(), kept.end(), [&](const Rect& k) {
      return iou(k, w.box) > config_.proposalNmsIou;
    });
    if (!dup) kept.push_back(w.box);
  }
  return kept;
}

TwoStageDetector TwoStageDetector::train(
    const dataset::AuiDataset& data, const TwoStageConfig& config,
    const TwoStageTrainConfig& trainConfig) {
  TwoStageDetector detector(config);
  Rng rng(trainConfig.seed);

  std::vector<std::vector<HeadExample>> perImage;

  auto collect = [&](const dataset::Sample& sample) {
    const FeatureMap map(sample.image, detector.backboneChannels(),
                         config.featureScale);
    std::vector<HeadExample> examples;
    std::vector<HeadExample> negativesPool;
    for (const Rect& prop :
         detector.proposalsFromMap(map, sample.image.size())) {
      double bestIou = 0.0;
      const dataset::Annotation* bestGt = nullptr;
      for (const dataset::Annotation& gt : sample.annotations) {
        const double overlap = iou(prop, gt.box);
        if (overlap > bestIou) {
          bestIou = overlap;
          bestGt = &gt;
        }
      }
      if (bestGt != nullptr && bestIou >= 0.5) {
        HeadExample ex;
        ex.features = detector.regionFeatures(map, prop);
        ex.classTarget = bestGt->label == dataset::BoxLabel::kAgo ? 0 : 1;
        const Point gtCenter = bestGt->box.center();
        const Point pCenter = prop.center();
        ex.dx = static_cast<float>(gtCenter.x - pCenter.x) / prop.width;
        ex.dy = static_cast<float>(gtCenter.y - pCenter.y) / prop.height;
        ex.dw = std::log(static_cast<float>(bestGt->box.width) / prop.width);
        ex.dh = std::log(static_cast<float>(bestGt->box.height) / prop.height);
        examples.push_back(std::move(ex));
      } else if (bestIou < 0.3) {
        HeadExample ex;
        ex.features = detector.regionFeatures(map, prop);
        negativesPool.push_back(std::move(ex));
      }
    }
    rng.shuffle(negativesPool);
    const std::size_t keep = std::min<std::size_t>(
        negativesPool.size(),
        static_cast<std::size_t>(trainConfig.negativesPerImage));
    for (std::size_t i = 0; i < keep; ++i) {
      examples.push_back(std::move(negativesPool[i]));
    }
    perImage.push_back(std::move(examples));
  };

  for (std::size_t idx : data.trainIndices()) {
    collect(data.materialize(idx));
  }
  for (int i = 0; i < trainConfig.benignImages; ++i) {
    collect(dataset::materializeBenign(rng.next(), data.config().screenSize,
                                       i % 3 == 0));
  }

  // Head MLP: the R backbone is "deeper" (an extra hidden layer), like
  // ResNet50 vs VGG16.
  int featureDim = kCandidateFeatureDim;
  for (const auto& examples : perImage) {
    if (!examples.empty()) {
      featureDim = static_cast<int>(examples.front().features.size());
      break;
    }
  }
  std::vector<int> layerSizes{featureDim};
  if (config.backbone == Backbone::kR) {
    layerSizes.insert(layerSizes.end(), {64, 32, 16});
  } else {
    layerSizes.insert(layerSizes.end(), {48, 24});
  }
  layerSizes.push_back(6);
  detector.head_ = std::make_unique<nn::Mlp>(layerSizes, rng);

  trainHead(*detector.head_, perImage, trainConfig.epochs,
            trainConfig.lrDecayEvery, rng);
  return detector;
}

std::vector<Detection> TwoStageDetector::detect(
    const gfx::Bitmap& screenshot) const {
  // One FeatureMap feeds both the proposal scan and the per-region head
  // (previously each built its own identical map), and all kept proposals
  // are scored in a single batched head call.
  const FeatureMap map(screenshot, backboneChannels(), config_.featureScale);
  const std::vector<Rect> props = proposalsFromMap(map, screenshot.size());
  std::vector<Detection> raw;
  if (!props.empty()) {
    const std::size_t dim = static_cast<std::size_t>(regionFeatureDim(map));
    thread_local std::vector<float> feats;
    thread_local std::vector<float> logits;
    thread_local nn::ForwardScratch scratch;
    if (feats.size() < props.size() * dim) feats.resize(props.size() * dim);
    if (logits.size() < props.size() * 6) logits.resize(props.size() * 6);
    for (std::size_t i = 0; i < props.size(); ++i) {
      regionFeaturesInto(map, props[i], {feats.data() + i * dim, dim});
    }
    head_->forwardBatch({feats.data(), props.size() * dim},
                        static_cast<int>(props.size()),
                        {logits.data(), props.size() * 6}, scratch);
    for (std::size_t i = 0; i < props.size(); ++i) {
      const Rect& prop = props[i];
      const float* out = logits.data() + i * 6;
      const float confAgo = nn::sigmoid(out[0]);
      const float confUpo = nn::sigmoid(out[1]);
      const float best = std::max(confAgo, confUpo);
      if (best < config_.confidenceThreshold) continue;
      const float dx = std::clamp(out[2], -2.0f, 2.0f);
      const float dy = std::clamp(out[3], -2.0f, 2.0f);
      const float dw = std::clamp(out[4], -1.5f, 1.5f);
      const float dh = std::clamp(out[5], -1.5f, 1.5f);
      const float w = static_cast<float>(prop.width) * std::exp(dw);
      const float h = static_cast<float>(prop.height) * std::exp(dh);
      const float cx = static_cast<float>(prop.center().x) +
                       dx * static_cast<float>(prop.width);
      const float cy = static_cast<float>(prop.center().y) +
                       dy * static_cast<float>(prop.height);
      Detection det;
      det.box = RectF{cx - w / 2, cy - h / 2, w, h}.toRect();
      det.label = confAgo >= confUpo ? dataset::BoxLabel::kAgo
                                     : dataset::BoxLabel::kUpo;
      det.confidence = best;
      raw.push_back(det);
    }
  }
  std::vector<Detection> kept =
      nonMaxSuppression(std::move(raw), config_.nmsIou);
  if (config_.head == HeadKind::kFaster) {
    // The Faster head's RoI refinement snaps boxes to the underlying
    // surface but has no mask pass to VERIFY them: failed snaps keep the
    // coarse regressed box (often missing the IoU 0.9 bar) and spurious
    // detections are never filtered. That verification gap is what
    // separates it from the Mask variants here, as in the paper.
    for (Detection& det : kept) {
      if (const auto snapped =
              snapToRegion(screenshot, det.box, config_.refine)) {
        det.box = *snapped;
      }
    }
    kept = nonMaxSuppression(std::move(kept), 0.8);
  }
  if (config_.head == HeadKind::kMask) {
    // The "mask branch": pixel-accurate snap, dropped when the mask fails.
    std::vector<Detection> refined;
    for (Detection& det : kept) {
      if (const auto snapped =
              snapToRegion(screenshot, det.box, config_.refine)) {
        det.box = *snapped;
        refined.push_back(det);
      }
    }
    kept = nonMaxSuppression(std::move(refined), 0.8);
  }
  return kept;
}

double TwoStageDetector::costMacsPerImage() const {
  const Size size{360, 720};
  // Dense proposal scan (3 ring contrasts x ~12 integral reads each)...
  double windowCount = 0;
  for (const Anchor& shape : config_.windowShapes) {
    const int stride = shape.stride();
    windowCount += (static_cast<double>(size.width) / stride) *
                   (static_cast<double>(size.height) / stride);
  }
  const double proposalMacs = windowCount * 36.0;
  // ...plus the per-region head over the kept proposals.
  const double headMacs =
      head_ ? static_cast<double>(head_->parameterCount()) : 0.0;
  const double regionMacs = static_cast<double>(config_.maxProposals) *
                            (headMacs + config_.roiGrid * config_.roiGrid *
                                            kChannelCount * 4.0);
  const double featureMacs =
      static_cast<double>(size.width) * size.height * 3.0;
  return proposalMacs + regionMacs + featureMacs;
}

}  // namespace darpa::cv
