// Per-layer tracing from the benchmark's side of the public API. Nothing
// here reaches inside the library: a forwarding detector times and counts
// every detect() and keeps a sample of the screens it saw; the other layers
// are timed by calling their public entry points on a sample of the
// workload's live screens (android, lint, decorate) or captured screenshots
// (cv, nn).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "analysis/lint.h"
#include "core/darpa_service.h"
#include "cv/one_stage.h"

namespace perfbench {

namespace cv = darpa::cv;

/// A bounded, thread-safe sample of screenshots: keeps a clone of each
/// offered bitmap until `limit` are held.
class ScreenSample {
 public:
  explicit ScreenSample(int limit) : limit_(limit) {}
  void offer(const darpa::gfx::Bitmap& screen);
  [[nodiscard]] std::vector<darpa::gfx::Bitmap> take();

 private:
  int limit_;
  std::mutex mutex_;
  std::vector<darpa::gfx::Bitmap> screens_;  // guarded by mutex_
};

/// Forwards to a real detector, timing and counting every detect() and
/// offering every `captureStride`-th input to `captures`. Thread-safe: fleet
/// workers call detect() concurrently.
class TimedDetector final : public cv::Detector {
 public:
  TimedDetector(const cv::Detector& inner, ScreenSample& captures,
                int captureStride);

  [[nodiscard]] std::vector<cv::Detection> detect(
      const darpa::gfx::Bitmap& screenshot) const override;
  [[nodiscard]] double costMacsPerImage() const override {
    return inner_->costMacsPerImage();
  }
  [[nodiscard]] double costMacsPerBatch(int batchSize) const override {
    return inner_->costMacsPerBatch(batchSize);
  }

  [[nodiscard]] std::int64_t calls() const { return calls_.load(); }
  /// Summed wall time inside detect(), across all threads.
  [[nodiscard]] double busySeconds() const { return busyNs_.load() * 1e-9; }

 private:
  const cv::Detector* inner_;
  ScreenSample* captures_;
  int captureStride_;
  mutable std::atomic<std::int64_t> calls_{0};
  mutable std::atomic<std::int64_t> busyNs_{0};
};

/// Sums of the screen-side layer timings. One per session (filled only by
/// the thread advancing it), merged after the run.
struct ScreenLayerSums {
  std::int64_t samples = 0;
  double compositeMs = 0.0;
  double dumpUs = 0.0;
  double fingerprintUs = 0.0;
  double lintUs = 0.0;
  std::int64_t decorateSamples = 0;
  double decorateMs = 0.0;

  ScreenLayerSums& operator+=(const ScreenLayerSums& o);
};

/// Times WindowManager::composite, dumpTopWindow, fingerprint and
/// LintEngine::run on the device's current screen, and offers the composite
/// to `composites`. When the analysis just decorated (`decorated`), also
/// re-times DarpaService::decorate on the same detections: the overlays are
/// cleared and redrawn, so the screen ends as the pass left it.
void sampleScreenLayers(darpa::core::DarpaService& service,
                        const darpa::analysis::LintEngine& lint,
                        bool decorated,
                        const std::vector<cv::Detection>& detections,
                        ScreenSample& composites, ScreenLayerSums& out);

/// Mean per-screen time of each step of OneStageDetector::detect, replayed
/// through the public pieces (FeatureMap, the planned descriptor fill over
/// candidateBoxes, the head's Mlp::forwardBatch, nonMaxSuppression,
/// snapToRegion) on the same screens a full detect() is timed on, so
/// unattributedMs = detectMs - the parts.
struct DetectLayers {
  int screens = 0;
  int agreeing = 0;  ///< Screens whose replay output equals detect()'s.
  double detectMs = 0.0;
  double featureMapMs = 0.0;
  double descriptorFillMs = 0.0;
  double headMs = 0.0;
  double headNsPerCandidate = 0.0;
  double nmsUs = 0.0;
  double refineMs = 0.0;
  double unattributedMs = 0.0;
};
DetectLayers replayDetectLayers(const cv::OneStageDetector& detector,
                                const std::vector<darpa::gfx::Bitmap>& screens,
                                int repeats);

}  // namespace perfbench
