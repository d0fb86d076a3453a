#include "cv/one_stage.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <fstream>
#include <limits>

#include "nn/losses.h"
#include "util/log.h"

namespace darpa::cv {

namespace {

/// Shape-only IoU (YOLO anchor matching): boxes concentric, compare sizes.
double shapeIou(const Anchor& anchor, const Rect& gt) {
  const double interW = std::min(anchor.width, gt.width);
  const double interH = std::min(anchor.height, gt.height);
  const double inter = interW * interH;
  const double uni = static_cast<double>(anchor.width) * anchor.height +
                     static_cast<double>(gt.width) * gt.height - inter;
  return uni <= 0.0 ? 0.0 : inter / uni;
}

/// A grid candidate: anchor index + grid center position.
struct GridPos {
  int anchorIdx = 0;
  int cx = 0;
  int cy = 0;

  [[nodiscard]] Rect box(const std::vector<Anchor>& anchors) const {
    const Anchor& a = anchors[static_cast<std::size_t>(anchorIdx)];
    return {cx - a.width / 2, cy - a.height / 2, a.width, a.height};
  }
};

/// Enumerates all grid positions for an image size into a reused buffer.
void enumerateGridInto(const OneStageConfig& config, Size size,
                       std::vector<GridPos>& grid) {
  grid.clear();
  for (std::size_t a = 0; a < config.anchors.size(); ++a) {
    const int stride = config.anchors[a].stride();
    for (int cy = stride / 2; cy < size.height; cy += stride) {
      for (int cx = stride / 2; cx < size.width; cx += stride) {
        grid.push_back(GridPos{static_cast<int>(a), cx, cy});
      }
    }
  }
}

std::vector<GridPos> enumerateGrid(const OneStageConfig& config, Size size) {
  std::vector<GridPos> grid;
  enumerateGridInto(config, size, grid);
  return grid;
}

/// Grid centers along one axis: stride / 2, then every stride below extent.
std::size_t gridSteps(int extent, int stride) {
  const int first = stride / 2;
  return first < extent
             ? static_cast<std::size_t>((extent - first + stride - 1) / stride)
             : 0;
}

/// enumerateGrid(config, size).size(), counted without enumerating.
std::size_t gridSize(const OneStageConfig& config, Size size) {
  std::size_t n = 0;
  for (const Anchor& anchor : config.anchors) {
    n += gridSteps(size.width, anchor.stride()) *
         gridSteps(size.height, anchor.stride());
  }
  return n;
}

/// Candidates per streamed detect tile: one tile of the head kernel.
constexpr std::size_t kTileRows = nn::kForwardTileRows;

/// One anchor's slice of the descriptor plan: its grid columns' x-axis
/// plans, then its grid rows' y-axis plans, from `first` in
/// DetectScratch::axes.
struct AnchorAxes {
  std::size_t first = 0;
  int columns = 0;
  int rows = 0;
};

/// Per-thread arena for detect: the anchor grid and its descriptor plan
/// (cached across same-sized frames), one tile of descriptors and logits,
/// and the MLP forward scratch. Buffer growths are counted so the detect
/// stage and the hot-path bench can assert the steady state allocates
/// nothing.
struct DetectScratch {
  std::vector<GridPos> grid;
  /// Per-grid-entry geometric descriptor blocks (kCandidateGeometryDim
  /// floats each): geometry depends only on (frame size, anchor box), so
  /// the fill replays these across every frame of the cached size instead
  /// of recomputing hypot/log per candidate.
  std::vector<float> geometry;
  /// Per-axis cell plans of every anchor's descriptor rects (see
  /// DescriptorAxis): a few hundred entries where a per-candidate rect
  /// table would hold thousands.
  std::vector<DescriptorAxis> axes;
  std::vector<AnchorAxes> anchorAxes;
  /// What the grid and plan were built for.
  Size planSize{-1, -1};
  int planScale = 0;
  std::vector<Anchor> planAnchors;
  std::vector<float> features;  ///< kTileRows descriptor rows.
  std::vector<float> logits;    ///< kTileRows x 6 head outputs.
  nn::ForwardScratch forward;
  std::int64_t growths = 0;
  std::int64_t grownBytes = 0;

  template <typename T>
  void noteGrowth(const std::vector<T>& v, std::size_t before) {
    if (v.capacity() > before) {
      ++growths;
      grownBytes +=
          static_cast<std::int64_t>((v.capacity() - before) * sizeof(T));
    }
  }

  float* ensure(std::vector<float>& v, std::size_t n) {
    const std::size_t before = v.capacity();
    if (n > before) v.reserve(n);
    noteGrowth(v, before);
    if (v.size() < n) v.resize(n);
    return v.data();
  }

  /// Rebuilds the grid, its geometry blocks and the descriptor plan when
  /// the frame size, the feature scale or the anchors differ from the
  /// cached ones.
  void planFor(const OneStageConfig& config, const FeatureMap& map) {
    const Size size = map.fullSize();
    if (size == planSize && map.scale() == planScale &&
        config.anchors == planAnchors) {
      return;
    }
    std::size_t before = grid.capacity();
    enumerateGridInto(config, size, grid);
    noteGrowth(grid, before);
    float* geo = ensure(geometry, grid.size() * kCandidateGeometryDim);
    for (std::size_t r = 0; r < grid.size(); ++r) {
      candidateGeometryInto(
          size, grid[r].box(config.anchors),
          {geo + r * kCandidateGeometryDim,
           static_cast<std::size_t>(kCandidateGeometryDim)});
    }
    // The same column/row enumeration as enumerateGridInto, one axis at a
    // time.
    const std::size_t axesBefore = axes.capacity();
    const std::size_t anchorsBefore = anchorAxes.capacity();
    axes.clear();
    anchorAxes.clear();
    for (const Anchor& anchor : config.anchors) {
      const int stride = anchor.stride();
      const int minSide = std::min(anchor.width, anchor.height);
      AnchorAxes slice{axes.size(), 0, 0};
      for (int cx = stride / 2; cx < size.width; cx += stride) {
        axes.push_back(planDescriptorAxis(map, cx - anchor.width / 2,
                                          anchor.width, minSide, false));
        ++slice.columns;
      }
      for (int cy = stride / 2; cy < size.height; cy += stride) {
        axes.push_back(planDescriptorAxis(map, cy - anchor.height / 2,
                                          anchor.height, minSide, true));
        ++slice.rows;
      }
      anchorAxes.push_back(slice);
    }
    noteGrowth(axes, axesBefore);
    noteGrowth(anchorAxes, anchorsBefore);
    planSize = size;
    planScale = map.scale();
    planAnchors = config.anchors;
  }

  /// Fills descriptor rows [first, first + rows) of the planned grid into
  /// `features`, 0 < rows <= kTileRows. Grid order: per anchor, rows top to
  /// bottom, columns left to right.
  std::span<const float> fillRows(const FeatureMap& map, std::size_t first,
                                  std::size_t rows) {
    assert(0 < rows && rows <= kTileRows && first + rows <= grid.size());
    constexpr std::size_t dim = kCandidateFeatureDim;
    constexpr std::size_t geoDim = kCandidateGeometryDim;
    float* feats = ensure(features, kTileRows * dim);
    auto entries = [&](std::size_t a) {
      return static_cast<std::size_t>(anchorAxes[a].columns) *
             static_cast<std::size_t>(anchorAxes[a].rows);
    };
    // Cursor: anchor a, grid row j, grid column i of entry `first`.
    std::size_t a = 0;
    std::size_t offset = first;
    while (offset >= entries(a)) offset -= entries(a++);
    int i = static_cast<int>(offset % anchorAxes[a].columns);
    int j = static_cast<int>(offset / anchorAxes[a].columns);
    for (std::size_t k = 0; k < rows; ++k) {
      const AnchorAxes& slice = anchorAxes[a];
      const DescriptorAxis* columns = axes.data() + slice.first;
      candidateFeaturesFromPlan(
          map, columns[i], columns[slice.columns + j],
          {geometry.data() + (first + k) * geoDim, geoDim},
          {feats + k * dim, dim});
      // Advance in grid order, past anchors with no entries.
      if (++i < slice.columns) continue;
      i = 0;
      if (++j < slice.rows) continue;
      j = 0;
      do {
        ++a;
      } while (a < anchorAxes.size() && entries(a) == 0);
    }
    return {feats, rows * dim};
  }
};

DetectScratch& detectScratch() {
  thread_local DetectScratch scratch;
  return scratch;
}

/// Thresholds + decodes one candidate's head output into `raw`.
void decodeCandidate(const OneStageConfig& config, const GridPos& pos,
                     const float* out, std::vector<Detection>& raw) {
  const Anchor& anchor = config.anchors[static_cast<std::size_t>(pos.anchorIdx)];
  const float confAgo = nn::sigmoid(out[0]);
  const float confUpo = nn::sigmoid(out[1]);
  const bool agoFires = confAgo >= config.confidenceThresholdAgo;
  const bool upoFires = confUpo >= config.confidenceThresholdUpo;
  if (!agoFires && !upoFires) return;
  const float best =
      std::max(agoFires ? confAgo : 0.0f, upoFires ? confUpo : 0.0f);
  const int stride = anchor.stride();
  const float dx = std::clamp(out[2], -2.0f, 2.0f);
  const float dy = std::clamp(out[3], -2.0f, 2.0f);
  const float dw = std::clamp(out[4], -2.0f, 2.0f);
  const float dh = std::clamp(out[5], -2.0f, 2.0f);
  const float w = static_cast<float>(anchor.width) * std::exp(dw);
  const float h = static_cast<float>(anchor.height) * std::exp(dh);
  const float bx = static_cast<float>(pos.cx) + dx * stride - w / 2;
  const float by = static_cast<float>(pos.cy) + dy * stride - h / 2;
  Detection det;
  det.box = RectF{bx, by, w, h}.toRect();
  det.label = (agoFires && (!upoFires || confAgo >= confUpo))
                  ? dataset::BoxLabel::kAgo
                  : dataset::BoxLabel::kUpo;
  det.confidence = best;
  raw.push_back(det);
}

/// Matching result for one grid position.
struct MatchInfo {
  int classTarget = -1;
  bool ignore = false;
  float dx = 0, dy = 0, dw = 0, dh = 0;
};

MatchInfo matchCandidate(const OneStageConfig& config, const GridPos& pos,
                         std::span<const dataset::Annotation> annotations) {
  MatchInfo info;
  const Anchor& anchor = config.anchors[static_cast<std::size_t>(pos.anchorIdx)];
  const int stride = anchor.stride();
  const Rect box = pos.box(config.anchors);
  double bestPosIou = 0.0;
  for (const dataset::Annotation& gt : annotations) {
    bestPosIou = std::max(bestPosIou, iou(box, gt.box));
    const Point center = gt.box.center();
    // This grid position owns the GT if it is the nearest position of this
    // anchor's grid to the GT center.
    const bool owns = std::abs(center.x - pos.cx) <= stride / 2 &&
                      std::abs(center.y - pos.cy) <= stride / 2;
    if (!owns) continue;
    double bestShape = 0.0;
    std::size_t bestAnchor = 0;
    for (std::size_t b = 0; b < config.anchors.size(); ++b) {
      const double s = shapeIou(config.anchors[b], gt.box);
      if (s > bestShape) {
        bestShape = s;
        bestAnchor = b;
      }
    }
    const double myShape = shapeIou(anchor, gt.box);
    if (bestAnchor == static_cast<std::size_t>(pos.anchorIdx) ||
        myShape >= config.extraPositiveShapeIou) {
      info.classTarget = gt.label == dataset::BoxLabel::kAgo ? 0 : 1;
      info.dx = static_cast<float>(center.x - pos.cx) / stride;
      info.dy = static_cast<float>(center.y - pos.cy) / stride;
      info.dw = std::log(static_cast<float>(gt.box.width) /
                         static_cast<float>(anchor.width));
      info.dh = std::log(static_cast<float>(gt.box.height) /
                         static_cast<float>(anchor.height));
    }
  }
  if (info.classTarget < 0 && bestPosIou >= config.negativeIou) {
    info.ignore = true;
  }
  return info;
}

}  // namespace

std::vector<Rect> OneStageDetector::candidateBoxes(Size size) const {
  std::vector<Rect> boxes;
  for (const GridPos& pos : enumerateGrid(config_, size)) {
    boxes.push_back(pos.box(config_.anchors));
  }
  return boxes;
}

void trainHead(nn::Mlp& head,
               const std::vector<std::vector<HeadExample>>& images,
               int epochs, int lrDecayEvery, Rng& rng,
               const std::function<void(int epoch)>& beforeEpoch) {
  // Each positive is repeated per step to offset the heavy negative
  // imbalance (tiny UPOs drown otherwise).
  constexpr int kPositiveRepeat = 4;
  constexpr float kBoxLossWeight = 2.0f;
  std::vector<std::size_t> order(images.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  nn::AdamConfig adam;
  adam.learningRate = 2e-3f;
  // Hoisted backprop buffers: one Cache for the whole training run instead
  // of one per example, so epochs stop churning the heap.
  nn::Mlp::Cache cache;
  std::array<float, 6> dOut{};
  for (int epoch = 0; epoch < epochs; ++epoch) {
    if (lrDecayEvery > 0 && epoch > 0 && epoch % lrDecayEvery == 0) {
      adam.learningRate *= 0.5f;
    }
    if (beforeEpoch) beforeEpoch(epoch);
    rng.shuffle(order);
    double epochLoss = 0.0;
    for (std::size_t i : order) {
      const std::vector<HeadExample>& examples = images[i];
      if (examples.empty()) continue;
      int count = 0;
      for (const HeadExample& ex : examples) {
        const int repeat = ex.classTarget >= 0 ? kPositiveRepeat : 1;
        for (int rep = 0; rep < repeat; ++rep) {
          head.forwardCachedInto(ex.features, cache);
          const std::span<const float> out = cache.output();
          dOut.fill(0.0f);
          const float agoTarget = ex.classTarget == 0 ? 1.0f : 0.0f;
          const float upoTarget = ex.classTarget == 1 ? 1.0f : 0.0f;
          dOut[0] = nn::bceWithLogitsGrad(out[0], agoTarget);
          dOut[1] = nn::bceWithLogitsGrad(out[1], upoTarget);
          epochLoss += nn::bceWithLogits(out[0], agoTarget) +
                       nn::bceWithLogits(out[1], upoTarget);
          if (ex.classTarget >= 0) {
            const float w = kBoxLossWeight;
            dOut[2] = w * nn::smoothL1Grad(out[2], ex.dx);
            dOut[3] = w * nn::smoothL1Grad(out[3], ex.dy);
            dOut[4] = w * nn::smoothL1Grad(out[4], ex.dw);
            dOut[5] = w * nn::smoothL1Grad(out[5], ex.dh);
            epochLoss +=
                w * (nn::smoothL1(out[2], ex.dx) + nn::smoothL1(out[3], ex.dy) +
                     nn::smoothL1(out[4], ex.dw) + nn::smoothL1(out[5], ex.dh));
          }
          head.accumulateGradient(cache, dOut);
          ++count;
        }
      }
      head.applyAdam(adam, count);
    }
    logDebug("head epoch ", epoch, " loss ", epochLoss);
  }
}

OneStageDetector OneStageDetector::train(const dataset::AuiDataset& data,
                                         const OneStageConfig& config,
                                         const TrainConfig& trainConfig) {
  OneStageDetector detector(config);
  Rng rng(trainConfig.seed);

  // The training corpus: AUI split + benign negative-only images, described
  // by a closure that can re-render any of them on demand (screenshots are
  // NOT kept in memory; mining rounds re-render).
  struct ImageRef {
    bool benign = false;
    std::size_t datasetIdx = 0;
    std::uint64_t benignSeed = 0;
    bool benignHard = false;
  };
  std::vector<ImageRef> refs;
  for (std::size_t idx : data.trainIndices()) {
    refs.push_back(ImageRef{false, idx, 0, false});
  }
  for (int i = 0; i < trainConfig.benignImages; ++i) {
    refs.push_back(ImageRef{true, 0, rng.next(), i % 3 == 0});
  }
  auto render = [&](const ImageRef& ref) {
    return ref.benign
               ? dataset::materializeBenign(ref.benignSeed,
                                            data.config().screenSize,
                                            ref.benignHard)
               : data.materialize(ref.datasetIdx, trainConfig.maskText);
  };

  // Head.
  std::vector<int> layerSizes;
  layerSizes.push_back(kCandidateFeatureDim);
  for (int h : config.hiddenLayers) layerSizes.push_back(h);
  layerSizes.push_back(6);
  detector.head_ = std::make_unique<nn::Mlp>(layerSizes, rng);

  // Per-image selected example caches, refreshed at mining rounds.
  std::vector<std::vector<HeadExample>> selections(refs.size());

  auto mineImage = [&](std::size_t r) {
    const dataset::Sample sample = render(refs[r]);
    const FeatureMap map(sample.image, config.channels, config.featureScale);
    const std::vector<GridPos> grid =
        enumerateGrid(config, sample.image.size());

    std::vector<HeadExample> selected;
    auto describe = [&](const GridPos& pos) {
      HeadExample ex;
      ex.features.resize(kCandidateFeatureDim);
      candidateFeaturesInto(map, pos.box(config.anchors), ex.features);
      return ex;
    };
    struct ScoredNegative {
      float score;
      const GridPos* pos;
    };
    // First sweep: select positives, collect negative candidates.
    std::vector<const GridPos*> negPos;
    for (const GridPos& pos : grid) {
      const MatchInfo info = matchCandidate(config, pos, sample.annotations);
      if (info.classTarget >= 0) {
        HeadExample ex = describe(pos);
        ex.classTarget = info.classTarget;
        ex.dx = info.dx;
        ex.dy = info.dy;
        ex.dw = info.dw;
        ex.dh = info.dh;
        selected.push_back(std::move(ex));
      } else if (!info.ignore) {
        negPos.push_back(&pos);
      }
    }
    // Hard-negative scoring through the batched head, one tile at a time
    // (bit-equal to a per-candidate forward loop, so mining picks the same
    // negatives).
    std::vector<ScoredNegative> negatives;
    negatives.reserve(negPos.size());
    DetectScratch& s = detectScratch();
    const std::size_t dim = kCandidateFeatureDim;
    float* feats = s.ensure(s.features, kTileRows * dim);
    float* logits = s.ensure(s.logits, kTileRows * 6);
    for (std::size_t first = 0; first < negPos.size(); first += kTileRows) {
      const std::size_t rows = std::min(kTileRows, negPos.size() - first);
      for (std::size_t i = 0; i < rows; ++i) {
        candidateFeaturesInto(map, negPos[first + i]->box(config.anchors),
                              {feats + i * dim, dim});
      }
      detector.head_->forwardBatch({feats, rows * dim},
                                   static_cast<int>(rows), {logits, rows * 6},
                                   s.forward);
      for (std::size_t i = 0; i < rows; ++i) {
        negatives.push_back(ScoredNegative{
            std::max(logits[i * 6 + 0], logits[i * 6 + 1]),
            negPos[first + i]});
      }
    }
    std::sort(negatives.begin(), negatives.end(),
              [](const ScoredNegative& a, const ScoredNegative& b) {
                return a.score > b.score;
              });
    const std::size_t hardCount = std::min<std::size_t>(
        negatives.size(),
        static_cast<std::size_t>(trainConfig.hardNegativesPerImage));
    for (std::size_t i = 0; i < hardCount; ++i) {
      selected.push_back(describe(*negatives[i].pos));
    }
    for (int i = 0;
         i < trainConfig.randomNegativesPerImage && !negatives.empty(); ++i) {
      const std::size_t pick = rng.next() % negatives.size();
      selected.push_back(describe(*negatives[pick].pos));
    }
    selections[r] = std::move(selected);
  };

  const int miningEvery = std::max(trainConfig.miningEvery, 1);
  trainHead(*detector.head_, selections, trainConfig.epochs,
            trainConfig.lrDecayEvery, rng, [&](int epoch) {
              if (epoch % miningEvery != 0) return;
              for (std::size_t r = 0; r < refs.size(); ++r) mineImage(r);
            });
  return detector;
}

void OneStageDetector::runHeadBatch(std::span<const float> features, int rows,
                                    std::span<float> logits,
                                    nn::ForwardScratch& scratch) const {
  if (useQuantized_ && quantizedHead_) {
    quantizedHead_->forwardBatch(features, rows, logits, scratch);
  } else {
    head_->forwardBatch(features, rows, logits, scratch);
  }
}

std::vector<Detection> OneStageDetector::postprocess(
    std::vector<Detection> raw, const gfx::Bitmap& screenshot) const {
  std::vector<Detection> kept =
      nonMaxSuppression(std::move(raw), config_.nmsIou);
  // Flood-fill refinement to the rendered option extent; failures are
  // either kept coarse or dropped per config.
  std::vector<Detection> refined;
  for (Detection& det : kept) {
    if (const auto snapped =
            snapToRegion(screenshot, det.box, config_.refine)) {
      det.box = *snapped;
      refined.push_back(det);
    } else if (!config_.dropUnrefined) {
      refined.push_back(det);
    }
  }
  // Refined boxes may have collapsed onto each other; merge duplicates.
  return nonMaxSuppression(std::move(refined), 0.8);
}

std::span<const float> OneStageDetector::fillDescriptors(
    const FeatureMap& map, std::size_t first, std::size_t rows) const {
  DetectScratch& s = detectScratch();
  s.planFor(config_, map);
  return s.fillRows(map, first, rows);
}

std::vector<Detection> OneStageDetector::detect(
    const gfx::Bitmap& screenshot) const {
  const FeatureMap map(screenshot, config_.channels, config_.featureScale);
  // Fill, score and decode the anchor grid one head tile at a time, in grid
  // order. No per-frame descriptor or logit matrix exists.
  std::vector<Detection> raw;
  DetectScratch& s = detectScratch();
  s.planFor(config_, map);
  float* logits = s.ensure(s.logits, kTileRows * 6);
  for (std::size_t first = 0; first < s.grid.size(); first += kTileRows) {
    const std::size_t rows = std::min(kTileRows, s.grid.size() - first);
    runHeadBatch(s.fillRows(map, first, rows), static_cast<int>(rows),
                 {logits, rows * 6}, s.forward);
    for (std::size_t r = 0; r < rows; ++r) {
      decodeCandidate(config_, s.grid[first + r], logits + r * 6, raw);
    }
  }
  return postprocess(std::move(raw), screenshot);
}

double OneStageDetector::costMacsPerImage() const {
  // Head cost over all grid candidates plus the feature-extraction sweep.
  const Size size{360, 720};
  const double candidates = static_cast<double>(gridSize(config_, size));
  const double headMacs =
      head_ ? static_cast<double>(head_->parameterCount()) : 0.0;
  const double featureMacs =
      static_cast<double>(size.width) * size.height * 3.0;  // channel sweeps
  return candidates * headMacs + featureMacs;
}

void OneStageDetector::enableQuantized(
    std::span<const gfx::Bitmap> calibrationImages) {
  // Every 7th candidate of the grid, described by the fill detect serves,
  // is plenty to estimate activation ranges.
  std::vector<std::vector<float>> calibration;
  DetectScratch& s = detectScratch();
  for (const gfx::Bitmap& image : calibrationImages) {
    const FeatureMap map(image, config_.channels, config_.featureScale);
    s.planFor(config_, map);
    for (std::size_t i = 0; i < s.grid.size(); i += 7) {
      const std::span<const float> row = s.fillRows(map, i, 1);
      calibration.emplace_back(row.begin(), row.end());
    }
  }
  quantizedHead_ = nn::QuantizedMlp::fromMlp(*head_, calibration);
  useQuantized_ = true;
  // Surface the int8 body once: when a perf trend moves, the first
  // question is whether the kernel changed under us.
  logDebug("one-stage quantized head enabled; int8 kernel lane ",
           quantizedKernelLane());
}

const char* OneStageDetector::quantizedKernelLane() {
  return nn::kernels::kCompiledInt8Body;
}

std::size_t OneStageDetector::modelBytes() const {
  if (useQuantized_ && quantizedHead_) return quantizedHead_->modelBytes();
  return head_ ? head_->parameterCount() * sizeof(float) : 0;
}

bool OneStageDetector::saveModel(const std::string& path) const {
  if (head_ == nullptr) return false;
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  head_->save(out);
  return static_cast<bool>(out);
}

std::optional<OneStageDetector> OneStageDetector::loadModel(
    const std::string& path, const OneStageConfig& config) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  auto head = nn::Mlp::load(in);
  if (!head) return std::nullopt;
  OneStageDetector detector(config);
  detector.head_ = std::make_unique<nn::Mlp>(std::move(*head));
  if (detector.head_->inputSize() != kCandidateFeatureDim ||
      detector.head_->outputSize() != 6) {
    return std::nullopt;
  }
  return detector;
}

DetectScratchStats hotpathScratchStats() {
  const DetectScratch& s = detectScratch();
  const FeatureScratchStats& f = featureScratchStats();
  return {s.growths + s.forward.growths() + f.growths,
          s.grownBytes + s.forward.grownBytes() + f.grownBytes};
}

ModelMetrics evaluateDetector(const Detector& detector,
                              const dataset::AuiDataset& data,
                              const std::vector<std::size_t>& indices,
                              bool maskText, double iouThreshold) {
  ModelMetrics metrics;
  for (std::size_t idx : indices) {
    const dataset::Sample sample = data.materialize(idx, maskText);
    const std::vector<Detection> detections = detector.detect(sample.image);
    metrics.ago += evaluateImage(detections, sample.annotations, iouThreshold,
                                 dataset::BoxLabel::kAgo);
    metrics.upo += evaluateImage(detections, sample.annotations, iouThreshold,
                                 dataset::BoxLabel::kUpo);
  }
  return metrics;
}

}  // namespace darpa::cv
