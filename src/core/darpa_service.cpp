#include "core/darpa_service.h"

#include <algorithm>
#include <memory>

#include "analysis/lint.h"
#include "core/decoration.h"
#include "util/log.h"

namespace darpa::core {

DarpaService::DarpaService(const cv::Detector& detector, DarpaConfig config)
    : detector_(&detector),
      config_(config),
      pipeline_(config.verdictCacheCapacity, config.verdictTier) {}

DarpaService::~DarpaService() {
  if (connected()) clearDecorations();
}

void DarpaService::onServiceConnected() {
  // Fig. 5 "Event registration": all 23 event types, 200 ms notification
  // delay to avoid being overwhelmed by redundant UI updates.
  setEventTypesMask(android::kAllEventTypesMask);
  setNotificationTimeout(config_.notificationDelay);
  logInfo("DARPA connected: ct=", config_.cutoff.count, "ms decorate=",
          config_.decorate, " bypass=", config_.autoBypass,
          " cache=", config_.verdictCacheCapacity);
}

void DarpaService::onAccessibilityEvent(
    const android::AccessibilityEvent& event) {
  // Selective monitoring: trusted packages are exempt before any work is
  // accounted (the framework still wakes us, but we return immediately).
  if (!config_.trustedPackages.empty() &&
      config_.trustedPackages.contains(event.packageName)) {
    return;
  }
  ++stats_.eventsReceived;
  ledger_.recordEvent(event.time);
  logDebug("DARPA event ", android::eventTypeName(event.type), " from ",
           event.packageName);
  // Debounce to stability: any UI update resets the ct timer, so only
  // screens that stay unchanged for `cutoff` get analyzed.
  android::Looper* loop = looper();
  if (loop == nullptr) return;
  if (pendingAnalysis_ != 0) {
    loop->cancel(pendingAnalysis_);
  } else {
    // First event of a new burst: the screen's debounce wait is measured
    // from here until the analysis actually fires.
    burstStartAt_ = event.time;
  }
  pendingAnalysis_ = loop->postDelayed(
      [this] {
        pendingAnalysis_ = 0;
        analyzeNow();
      },
      config_.cutoff);
}

void DarpaService::analyzeNow() {
  if (!connected()) return;
  android::WindowManager* wm = windowManager();

  // Selective-monitoring guard for mid-debounce app transitions: if a
  // trusted package reached the foreground after the trigger event, its
  // screen must not be analyzed — and in particular must never touch the
  // verdict cache (neither probing it nor seeding it).
  if (wm != nullptr && !config_.trustedPackages.empty()) {
    const android::Window* top = wm->topAppWindow();
    if (top != nullptr &&
        config_.trustedPackages.contains(top->packageName())) {
      clearDecorations();
      burstStartAt_ = Millis{-1};
      return;
    }
  }

  ++stats_.analysesRun;
  const Millis now = looper() != nullptr ? looper()->now() : Millis{0};
  Millis debounceLatency{0};
  if (burstStartAt_.count >= 0) {
    debounceLatency = now - burstStartAt_;
    burstStartAt_ = Millis{-1};
  }
  ledger_.beginAnalysis(now, debounceLatency);

  // Remove our own decorations before the pipeline runs so the model never
  // sees (and re-detects) DARPA's overlay.
  clearDecorations();

  AnalysisContext ctx;
  ctx.service = this;
  ctx.config = &config_;
  ctx.detector = detector_;
  ctx.wm = wm;
  ctx.vault = &vault_;
  ctx.stats = &stats_;
  ctx.now = now;
  pipeline_.run(ctx, ledger_);

  // A cache-served analysis counts against the tier that served it.
  if (ctx.fromCache) {
    ++(ctx.fromSharedTier ? stats_.verdictTierHits : stats_.verdictCacheHits);
  }
  lastDetections_ = ctx.detections;
  lastWasAui_ = ctx.isAui;
  ledger_.endAnalysis();
  if (analysisListener_) analysisListener_(ctx.isAui, ctx.detections);
}

void DarpaService::decorate(const std::vector<cv::Detection>& detections) {
  decorateDetections(detections, measureWindowOffset());
}

bool DarpaService::decorateVirtualNode(std::string_view virtualId,
                                       bool asUpo) {
  android::WindowManager* wm = windowManager();
  if (wm == nullptr || virtualId.empty()) return false;
  // The hybrid dump already carries every virtual node's bounds in screen
  // coordinates (page bounds translated through the hosting WebView), so
  // resolving the id is a linear scan — no native findViewById analogue
  // exists for virtual nodes.
  const android::UiDump dump = wm->dumpTopWindow();
  for (const android::UiNode& node : dump) {
    if (!node.isVirtual || node.virtualId != virtualId) continue;
    cv::Detection det;
    det.box = node.boundsOnScreen;
    det.label = asUpo ? dataset::BoxLabel::kUpo : dataset::BoxLabel::kAgo;
    det.confidence = 1.0f;
    decorateDetections({det}, measureWindowOffset());
    return true;
  }
  return false;
}

void DarpaService::tryBypass(const std::vector<cv::Detection>& detections) {
  // Click the most confident UPO to dismiss the AUI on the user's behalf.
  const cv::Detection* bestUpo = nullptr;
  for (const cv::Detection& det : detections) {
    if (det.label != dataset::BoxLabel::kUpo) continue;
    if (bestUpo == nullptr || det.confidence > bestUpo->confidence) {
      bestUpo = &det;
    }
  }
  if (bestUpo == nullptr) return;
  const Millis now = looper() != nullptr ? looper()->now() : Millis{0};
  const bool repeat = iou(bestUpo->box, lastBypassBox_) > 0.8 &&
                      now - lastBypassAt_ < config_.bypassCooldown;
  if (repeat) return;
  // The cooldown covers attempts, not landed clicks: the dispatched gesture
  // itself raises touch events that re-trigger analysis, so an unconsumed
  // click retried every pass would spin the event loop forever.
  lastBypassBox_ = bestUpo->box;
  lastBypassAt_ = now;
  if (dispatchClick(bestUpo->box.center())) {
    ++stats_.bypassClicks;
    ledger_.recordBypass();
  }
}

Point DarpaService::measureWindowOffset() {
  // §IV-D: Android exposes no API for the app-window offset, so DARPA adds
  // an invisible 1x1 anchor view at window coordinates (0, 0) and reads its
  // location on screen.
  android::WindowManager* wm = windowManager();
  if (wm == nullptr) return {0, 0};
  ++stats_.anchorMeasurements;
  auto anchor = std::make_unique<android::View>();
  anchor->setVisible(false);
  const int anchorId = wm->addOverlay(std::move(anchor), {0, 0, 1, 1});
  const auto location = wm->overlayLocationOnScreen(anchorId);
  wm->removeOverlay(anchorId);
  return location.value_or(Point{0, 0});
}

void DarpaService::decorateDetections(
    const std::vector<cv::Detection>& detections, Point windowOffset) {
  android::WindowManager* wm = windowManager();
  if (wm == nullptr) return;
  // Keep only the most confident detections of each class.
  std::vector<cv::Detection> selected(detections.begin(), detections.end());
  std::sort(selected.begin(), selected.end(),
            [](const cv::Detection& a, const cv::Detection& b) {
              return a.confidence > b.confidence;
            });
  int upoKept = 0;
  int agoKept = 0;
  std::vector<cv::Detection> toDraw;
  for (const cv::Detection& det : selected) {
    int& kept = det.label == dataset::BoxLabel::kUpo ? upoKept : agoKept;
    if (kept >= config_.maxDecorationsPerClass) continue;
    ++kept;
    toDraw.push_back(det);
  }
  for (const cv::Detection& det : toDraw) {
    const bool isUpo = det.label == dataset::BoxLabel::kUpo;
    const Color color = isUpo ? config_.upoColor : config_.agoColor;
    auto view = std::make_unique<DecorationView>(
        color, config_.decorationThickness,
        isUpo ? config_.upoStyle : config_.agoStyle);
    // Grow the box so the border ring sits around the option, then convert
    // screen -> window coordinates with the measured offset (Fig. 6).
    const Rect target = det.box.inflated(config_.decorationThickness + 1);
    android::LayoutParams lp;
    lp.x = target.x - windowOffset.x;
    lp.y = target.y - windowOffset.y;
    lp.width = target.width;
    lp.height = target.height;
    lp.type = android::LayoutParams::Type::kAccessibilityOverlay;
    decorationOverlayIds_.push_back(wm->addOverlay(std::move(view), lp));
    ++stats_.decorationsDrawn;
    ledger_.recordDecoration();
  }
}

std::vector<Rect> DarpaService::decorationRects() const {
  std::vector<Rect> rects;
  const android::WindowManager* wm = windowManager();
  if (wm == nullptr) return rects;
  for (int id : decorationOverlayIds_) {
    if (const auto bounds = wm->overlayBoundsOnScreen(id)) {
      rects.push_back(*bounds);
    }
  }
  return rects;
}

void DarpaService::clearDecorations() {
  android::WindowManager* wm = windowManager();
  if (wm == nullptr) {
    decorationOverlayIds_.clear();
    return;
  }
  for (int id : decorationOverlayIds_) wm->removeOverlay(id);
  decorationOverlayIds_.clear();
}

}  // namespace darpa::core
