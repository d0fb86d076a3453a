#include "core/darpa_service.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "analysis/lint.h"
#include "core/decoration.h"
#include "core/verdict_tier.h"
#include "cv/one_stage.h"
#include "util/clock.h"
#include "util/log.h"

namespace darpa::core {

DarpaService::DarpaService(const cv::Detector& detector, DarpaConfig config)
    : detector_(&detector),
      config_(config),
      verdictCache_(config.verdictCacheCapacity) {}

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

  // Remove our own decorations before the pass so the model never sees
  // (and re-detects) DARPA's overlay.
  clearDecorations();

  // One ScreenFrame per pass: the UI dump is captured once, shared by the
  // fingerprint probe and the lint step, and later joined by the pixels —
  // the frame is the single owner of everything the pass perceives.
  // Decoration overlays are never part of the dump (they live outside the
  // app window), so a decorated screen fingerprints like its clean self.
  // The fingerprint is memoized in the frame on first use.
  std::shared_ptr<ScreenFrame> frame;
  if (wm != nullptr) {
    const android::Window* top = wm->topAppWindow();
    frame = std::make_shared<ScreenFrame>(
        wm->dumpTopWindow(),
        top != nullptr ? top->packageName() : std::string{});
  }
  SharedVerdictTier* tier = config_.verdictTier;
  std::vector<cv::Detection> detections;
  bool fromCache = false;       // Verdict served by L1 or L2.
  bool resolvedByLint = false;  // Confident lint verdict; CV skipped.
  bool screenshotOk = false;    // A usable capture reached the vault.
  bool isAui = false;

  // Verdict-cache probe, L1 then L2: a hit in either tier resolves the
  // whole analysis for the cost of the dump walk + lookup(s) and routes
  // straight to the act step. An L2 hit is promoted into L1 so the next
  // repeat of this screen is a session-local hit again. With no tier
  // wired this block is byte-identical to the historical L1-only probe.
  if (wm != nullptr && (verdictCache_.enabled() || tier != nullptr)) {
    ledger_.recordRun(Stage::kVerdict, ledger_.costs().cacheLookupCpuMs);
    const VerdictCache::Entry* hit =
        verdictCache_.enabled() ? verdictCache_.find(frame->fingerprint())
                                : nullptr;
    if (hit != nullptr) {
      ledger_.recordCacheHit();
      ++stats_.verdictCacheHits;
      fromCache = true;
      isAui = hit->isAui;
      detections = hit->detections;
    } else if (tier != nullptr) {
      // The L2 probe is a second lookup; price it as one when the L1
      // probe above already paid the first.
      if (verdictCache_.enabled()) {
        ledger_.recordRun(Stage::kVerdict, ledger_.costs().cacheLookupCpuMs);
      }
      if (auto shared = tier->find(frame->fingerprint())) {
        ledger_.recordCacheHit();
        ++stats_.verdictTierHits;
        fromCache = true;
        isAui = shared->isAui;
        detections = std::move(shared->detections);
        if (verdictCache_.enabled()) {
          verdictCache_.put(frame->fingerprint(), {isAui, detections});
        }
      } else {
        ledger_.recordCacheMiss();
      }
    } else {
      ledger_.recordCacheMiss();
    }
  }

  // Runs one Fig.-5 step, or records it as skipped when the routing does
  // not want it. Wall-clock observability around the step's real
  // execution; the step's own recordRun prices the modeled axis. Audited:
  // both reads feed only recordActual -> StageTally::actualUs, which
  // nothing digest-stable may consume (work_ledger.h).
  const auto step = [this](Stage stage, bool runs, const auto& body) {
    if (!runs) {
      ledger_.recordSkip(stage);
      return;
    }
    // detlint: begin-allow(wall-clock-in-digest-path) observability axis only
    const double startUs = wallMicros();
    body();
    ledger_.recordActual(stage, wallMicros() - startUs);
    // detlint: end-allow(wall-clock-in-digest-path)
  };

  // Lint: the static pre-filter over the UI dump (no pixels). A confident
  // verdict resolves the pass; lint option boxes stand in for detections.
  step(Stage::kLint,
       !fromCache && config_.lintPrefilter != nullptr && wm != nullptr, [&] {
         const analysis::LintReport lint = config_.lintPrefilter->run(
             frame->dump(), wm->config().screenSize);
         ++stats_.lintRuns;
         ledger_.recordRun(Stage::kLint, ledger_.costs().lintCpuMs);
         if (!lint.verdict.confident) return;
         resolvedByLint = true;
         ++stats_.cvSkippedByLint;
         if (!lint.verdict.isAui) return;
         const auto confidence = static_cast<float>(lint.verdict.score);
         for (const Rect& box : lint.verdict.upoBoxes) {
           detections.push_back({box, dataset::BoxLabel::kUpo, confidence});
         }
         for (const Rect& box : lint.verdict.agoBoxes) {
           detections.push_back({box, dataset::BoxLabel::kAgo, confidence});
         }
       });

  // Screenshot: the capture joins the pass's frame and the vault takes
  // shared custody of it. Only a usable (non-empty) capture is counted and
  // priced; a failed one is recorded as a skip and skips detection too.
  step(Stage::kScreenshot, !fromCache && !resolvedByLint, [&] {
    gfx::Bitmap shot = takeScreenshot();
    screenshotOk = frame != nullptr && !shot.empty();
    if (!screenshotOk) {
      // A failed capture is not billable work and must not drift the
      // stats: no screenshot was taken, so none is counted, priced, or
      // vaulted.
      ledger_.recordSkip(Stage::kScreenshot);
      return;
    }
    ledger_.recordFrameBytes(shot.pixelBytes());
    // Zero-copy: one buffer, every holder.
    frame->attachPixels(std::move(shot));
    vault_.store(frame);
    ++stats_.screenshotsTaken;
    ledger_.recordRun(Stage::kScreenshot, ledger_.costs().screenshotCpuMs);
  });

  // Detect: the CV model over the held frame, on the session's thread.
  step(Stage::kDetect, !fromCache && !resolvedByLint && screenshotOk, [&] {
    // §IV-E custody: the frame leaves the vault for the model run and this
    // reference is dropped the moment the model returns; the frame scrubs
    // its pixels when the last holder (this pass) lets go. The scratch
    // stats are thread-local, so their delta is exactly this call's
    // warm-up.
    FramePtr held = vault_.take();
    const cv::DetectScratchStats before = cv::hotpathScratchStats();
    detections = detector_->detect(held->pixels());
    const cv::DetectScratchStats after = cv::hotpathScratchStats();
    held.reset();
    ledger_.recordRun(Stage::kDetect, detector_->costMacsPerImage() /
                                          ledger_.costs().macsPerCpuMs);
    ledger_.recordScratchGrowth(Stage::kDetect, after.growths - before.growths,
                                after.grownBytes - before.grownBytes);
  });

  // Verdict: merges detections into the screen verdict and stores it in
  // both cache tiers.
  step(Stage::kVerdict, !fromCache, [&] {
    bool hasUpo = false;
    bool hasAgo = false;
    for (const cv::Detection& det : detections) {
      if (det.label == dataset::BoxLabel::kUpo) hasUpo = true;
      if (det.label == dataset::BoxLabel::kAgo) hasAgo = true;
    }
    isAui = config_.requireUpoForAui ? hasUpo : (hasUpo || hasAgo);
    ledger_.recordRun(Stage::kVerdict, ledger_.costs().verdictCpuMs);
    if (wm == nullptr) return;
    // Cache only verdicts that rest on real evidence (a lint resolution or
    // a usable capture); a transient screenshot failure must stay
    // transient.
    if (verdictCache_.enabled() && (resolvedByLint || screenshotOk)) {
      verdictCache_.put(frame->fingerprint(), {isAui, detections});
    }
    // Publish to the fleet L2 with the evidence grade attached; the tier's
    // poisoning guard enforces the same seeding rule fleet-wide (an
    // unevidenced publish is counted and dropped there, keeping one
    // session's failed capture from becoming everyone's verdict).
    if (tier != nullptr) {
      const auto evidence = resolvedByLint
                                ? SharedVerdictTier::Evidence::kLint
                                : (screenshotOk
                                       ? SharedVerdictTier::Evidence::kCapture
                                       : SharedVerdictTier::Evidence::kNone);
      tier->publish(frame->fingerprint(), {isAui, detections}, evidence);
    }
  });

  // Act: the auto-bypass click or the decoration overlays. The §IV-D
  // anchor-overlay offset is measured inside decorate() — only this path
  // consumes it, so only this path pays for it. Act work is priced inside
  // the helpers.
  step(Stage::kAct, isAui, [&] {
    ++stats_.auisFlagged;
    if (config_.autoBypass) {
      tryBypass(detections);
    } else if (config_.decorate) {
      decorate(detections);
    }
  });

  lastDetections_ = detections;
  lastWasAui_ = isAui;
  ledger_.endAnalysis();
  if (analysisListener_) analysisListener_(isAui, detections);
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
