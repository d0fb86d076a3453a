#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "cv/detection.h"
#include "cv/features.h"
#include "cv/refine.h"
#include "harness.h"
#include "nn/losses.h"
#include "nn/mlp.h"

namespace perfbench {

using darpa::Rect;
using darpa::Size;
using darpa::gfx::Bitmap;

void ScreenSample::offer(const Bitmap& screen) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (static_cast<int>(screens_.size()) < limit_) {
    screens_.push_back(screen.clone());
  }
}

std::vector<Bitmap> ScreenSample::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::move(screens_);
}

TimedDetector::TimedDetector(const cv::Detector& inner, ScreenSample& captures,
                             int captureStride)
    : inner_(&inner),
      captures_(&captures),
      captureStride_(std::max(captureStride, 1)) {}

std::vector<cv::Detection> TimedDetector::detect(
    const Bitmap& screenshot) const {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<cv::Detection> out = inner_->detect(screenshot);
  const auto t1 = std::chrono::steady_clock::now();
  busyNs_ += std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                 .count();
  if (calls_++ % captureStride_ == 0) captures_->offer(screenshot);
  return out;
}

ScreenLayerSums& ScreenLayerSums::operator+=(const ScreenLayerSums& o) {
  samples += o.samples;
  compositeMs += o.compositeMs;
  dumpUs += o.dumpUs;
  fingerprintUs += o.fingerprintUs;
  lintUs += o.lintUs;
  decorateSamples += o.decorateSamples;
  decorateMs += o.decorateMs;
  return *this;
}

void sampleScreenLayers(darpa::core::DarpaService& service,
                        const darpa::analysis::LintEngine& lint,
                        bool decorated,
                        const std::vector<cv::Detection>& detections,
                        ScreenSample& composites, ScreenLayerSums& out) {
  darpa::android::WindowManager* wm = service.windowManager();
  if (wm == nullptr) return;
  const double t0 = nowS();
  const Bitmap screen = wm->composite();
  const double t1 = nowS();
  const darpa::android::UiDump dump = wm->dumpTopWindow();
  const double t2 = nowS();
  const std::uint64_t fingerprint =
      darpa::android::WindowManager::fingerprint(dump);
  const double t3 = nowS();
  const darpa::analysis::LintReport report =
      lint.run(dump, wm->config().screenSize);
  const double t4 = nowS();
  // Keep the results observable so none of the timed calls is elided.
  if (screen.size().width < 0 || fingerprint == 1 ||
      report.nodesVisited < 0) {
    return;
  }
  composites.offer(screen);
  ++out.samples;
  out.compositeMs += (t1 - t0) * 1e3;
  out.dumpUs += (t2 - t1) * 1e6;
  out.fingerprintUs += (t3 - t2) * 1e6;
  out.lintUs += (t4 - t3) * 1e6;
  if (decorated && !detections.empty()) {
    service.clearDecorations();
    const double d0 = nowS();
    service.decorate(detections);
    out.decorateMs += (nowS() - d0) * 1e3;
    ++out.decorateSamples;
  }
}

namespace {

/// One anchor-grid entry in OneStageDetector's enumeration order.
struct GridEntry {
  int anchor = 0;
  int cx = 0;
  int cy = 0;
};

std::vector<GridEntry> anchorGrid(const cv::OneStageConfig& config,
                                  Size size) {
  std::vector<GridEntry> grid;
  for (std::size_t a = 0; a < config.anchors.size(); ++a) {
    const int stride = config.anchors[a].stride();
    for (int cy = stride / 2; cy < size.height; cy += stride) {
      for (int cx = stride / 2; cx < size.width; cx += stride) {
        grid.push_back({static_cast<int>(a), cx, cy});
      }
    }
  }
  return grid;
}

/// The detector's threshold + box decode for one candidate's head output.
void decode(const cv::OneStageConfig& config, const GridEntry& pos,
            const float* out, std::vector<cv::Detection>& raw) {
  const cv::Anchor& anchor = config.anchors[static_cast<std::size_t>(pos.anchor)];
  const float confAgo = darpa::nn::sigmoid(out[0]);
  const float confUpo = darpa::nn::sigmoid(out[1]);
  const bool agoFires = confAgo >= config.confidenceThresholdAgo;
  const bool upoFires = confUpo >= config.confidenceThresholdUpo;
  if (!agoFires && !upoFires) return;
  const int stride = anchor.stride();
  const float dx = std::clamp(out[2], -2.0f, 2.0f);
  const float dy = std::clamp(out[3], -2.0f, 2.0f);
  const float dw = std::clamp(out[4], -2.0f, 2.0f);
  const float dh = std::clamp(out[5], -2.0f, 2.0f);
  const float w = static_cast<float>(anchor.width) * std::exp(dw);
  const float h = static_cast<float>(anchor.height) * std::exp(dh);
  cv::Detection det;
  det.box = darpa::RectF{static_cast<float>(pos.cx) + dx * stride - w / 2,
                         static_cast<float>(pos.cy) + dy * stride - h / 2, w,
                         h}
                .toRect();
  det.label = (agoFires && (!upoFires || confAgo >= confUpo))
                  ? darpa::dataset::BoxLabel::kAgo
                  : darpa::dataset::BoxLabel::kUpo;
  det.confidence =
      std::max(agoFires ? confAgo : 0.0f, upoFires ? confUpo : 0.0f);
  raw.push_back(det);
}

bool sameDetections(const std::vector<cv::Detection>& a,
                    const std::vector<cv::Detection>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const cv::Detection& x, const cv::Detection& y) {
                      return x.box == y.box && x.label == y.label &&
                             x.confidence == y.confidence;
                    });
}

/// Per-size replay plan: candidate boxes and their geometry blocks, built
/// once per frame size exactly as the detector caches its grid.
struct Plan {
  Size size{-1, -1};
  std::vector<GridEntry> grid;
  std::vector<Rect> boxes;
  std::vector<float> geometry;
};

}  // namespace

DetectLayers replayDetectLayers(const cv::OneStageDetector& detector,
                                const std::vector<Bitmap>& screens,
                                int repeats) {
  DetectLayers out;
  const cv::OneStageConfig& config = detector.config();
  const std::size_t dim = cv::kCandidateFeatureDim;
  const std::size_t geoDim = cv::kCandidateGeometryDim;
  Plan plan;
  std::vector<float> features;
  std::vector<float> logits;
  darpa::nn::ForwardScratch scratch;
  std::vector<cv::Detection> raw;
  double detectS = 0, mapS = 0, fillS = 0, headS = 0, nmsS = 0, refineS = 0;
  double candidates = 0;

  for (const Bitmap& screen : screens) {
    if (screen.size() != plan.size) {
      plan.size = screen.size();
      plan.grid = anchorGrid(config, plan.size);
      plan.boxes = detector.candidateBoxes(plan.size);
      plan.geometry.assign(plan.boxes.size() * geoDim, 0.0f);
      for (std::size_t r = 0; r < plan.boxes.size(); ++r) {
        cv::candidateGeometryInto(plan.size, plan.boxes[r],
                                  {plan.geometry.data() + r * geoDim, geoDim});
      }
    }
    const std::size_t rows = plan.boxes.size();
    if (plan.grid.size() != rows) return out;  // Enumeration drifted.
    features.resize(rows * dim);
    logits.resize(rows * 6);
    // An untimed first pass (rep -1) warms the per-thread arenas.
    for (int rep = -1; rep < repeats; ++rep) {
      const bool timed = rep >= 0;
      const double a0 = nowS();
      const std::vector<cv::Detection> served = detector.detect(screen);
      const double a1 = nowS();

      std::optional<cv::FeatureMap> map;
      const double b0 = nowS();
      map.emplace(screen, config.channels, config.featureScale);
      const double b1 = nowS();
      for (std::size_t r = 0; r < rows; ++r) {
        cv::candidateFeaturesPlannedInto(
            *map, plan.boxes[r], {plan.geometry.data() + r * geoDim, geoDim},
            {features.data() + r * dim, dim});
      }
      const double b2 = nowS();
      detector.head().forwardBatch(features, static_cast<int>(rows), logits,
                                   scratch);
      const double b3 = nowS();
      raw.clear();
      for (std::size_t r = 0; r < rows; ++r) {
        decode(config, plan.grid[r], logits.data() + r * 6, raw);
      }
      const double c0 = nowS();
      std::vector<cv::Detection> kept =
          cv::nonMaxSuppression(std::move(raw), config.nmsIou);
      const double c1 = nowS();
      std::vector<cv::Detection> refined;
      for (cv::Detection& det : kept) {
        if (const auto snapped =
                cv::snapToRegion(screen, det.box, config.refine)) {
          det.box = *snapped;
          refined.push_back(det);
        } else if (!config.dropUnrefined) {
          refined.push_back(det);
        }
      }
      const double c2 = nowS();
      const std::vector<cv::Detection> replayed =
          cv::nonMaxSuppression(std::move(refined), 0.8);
      const double c3 = nowS();
      raw = {};
      if (!timed) continue;
      detectS += a1 - a0;
      mapS += b1 - b0;
      fillS += b2 - b1;
      headS += b3 - b2;
      nmsS += (c1 - c0) + (c3 - c2);
      refineS += c2 - c1;
      candidates += static_cast<double>(rows);
      if (rep == 0) {
        ++out.screens;
        out.agreeing += sameDetections(served, replayed) ? 1 : 0;
      }
    }
  }
  const double n = static_cast<double>(out.screens) * repeats;
  if (n <= 0) return out;
  out.detectMs = detectS * 1e3 / n;
  out.featureMapMs = mapS * 1e3 / n;
  out.descriptorFillMs = fillS * 1e3 / n;
  out.headMs = headS * 1e3 / n;
  out.headNsPerCandidate = candidates > 0 ? headS * 1e9 / candidates : 0.0;
  out.nmsUs = nmsS * 1e6 / n;
  out.refineMs = refineS * 1e3 / n;
  out.unattributedMs = out.detectMs - out.featureMapMs - out.descriptorFillMs -
                       out.headMs - out.nmsUs * 1e-3 - out.refineMs;
  return out;
}

}  // namespace perfbench
