#include "core/darpa_service.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "analysis/lint.h"
#include "core/decoration.h"
#include "core/verdict_tier.h"
#include "util/clock.h"
#include "util/log.h"

namespace darpa::core {

namespace {

/// Mixes the foreground package into the screen fingerprint so two apps
/// that happen to render structurally identical trees (bare class names,
/// no resource ids) can never share a cached verdict.
std::uint64_t mixPackage(std::uint64_t fp, std::string_view package) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : package) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return fp ^ (h | 1);  // |1 keeps the mix non-zero for the empty package.
}

/// Auto-bypass cooldown: never re-click the same region within this
/// window. Without it the bypass click's own accessibility events
/// re-trigger analysis and, if the AUI survives the click, DARPA would
/// click forever.
constexpr Millis kBypassCooldown{3000};

}  // namespace

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
  ledger_.recordEvent();
  // Debounce to stability: any UI update resets the ct timer, so only
  // screens that stay unchanged for `cutoff` get analyzed.
  android::Looper* loop = looper();
  if (loop == nullptr) return;
  if (pendingAnalysis_ != 0) loop->cancel(pendingAnalysis_);
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
      return;
    }
  }

  ledger_.beginAnalysis();

  // Remove our own decorations before the pass so the model never sees
  // (and re-detects) DARPA's overlay.
  clearDecorations();

  // The verdict-cache key: the top window's fingerprint, taken by walking
  // the live view tree with no UI dump built, and salted with the
  // foreground package. It is computed only when a cache tier is on.
  // Decoration overlays live outside the app window, so a decorated screen
  // fingerprints like its clean self.
  SharedVerdictTier* tier = config_.verdictTier;
  const bool probe =
      wm != nullptr && (verdictCache_.enabled() || tier != nullptr);
  std::uint64_t key = 0;
  if (probe) {
    const android::Window* top = wm->topAppWindow();
    key = mixPackage(wm->topWindowFingerprint(),
                     top != nullptr ? std::string_view(top->packageName())
                                    : std::string_view());
  }
  std::vector<cv::Detection> detections;
  bool fromCache = false;       // Verdict served by L1 or L2.
  bool resolvedByLint = false;  // Confident lint verdict; CV skipped.
  bool screenshotOk = false;    // A usable capture reached the vault.
  bool isAui = false;

  // Verdict-cache probe, L1 then L2: a hit in either tier resolves the
  // whole analysis for the cost of the live walk + lookup(s) and routes
  // straight to the act step. An L2 hit is promoted into L1 so the next
  // repeat of this screen is a session-local hit again. With no tier
  // wired this block is byte-identical to the historical L1-only probe.
  if (probe) {
    ledger_.recordCacheLookup();
    const VerdictCache::Entry* hit = verdictCache_.find(key);
    if (hit != nullptr) {
      ledger_.recordCacheHit();
      fromCache = true;
      isAui = hit->isAui;
      detections = hit->detections;
    } else if (tier != nullptr) {
      // The L2 probe is a second lookup; price it as one when the L1
      // probe above already paid the first.
      if (verdictCache_.enabled()) ledger_.recordCacheLookup();
      if (auto shared = tier->find(key)) {
        ledger_.recordTierHit();
        fromCache = true;
        isAui = shared->isAui;
        detections = std::move(shared->detections);
        verdictCache_.put(key, {isAui, detections});
      } else {
        ledger_.recordCacheMiss();
      }
    } else {
      ledger_.recordCacheMiss();
    }
  }

  // Runs one Fig.-5 step, or records it as skipped when the routing does
  // not want it. Wall-clock observability around the step's real
  // execution; the step's own ledger call prices the modeled axis. Audited:
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

  // Lint: the static pre-filter over the UI dump (no pixels), the only
  // reader of the dump, so the dump is built here. A confident verdict
  // resolves the pass; lint option boxes stand in for detections.
  step(Stage::kLint,
       !fromCache && config_.lintPrefilter != nullptr && wm != nullptr, [&] {
         const analysis::LintReport lint = config_.lintPrefilter->run(
             wm->dumpTopWindow(), wm->config().screenSize);
         ledger_.recordLint(lint.verdict.confident);
         if (!lint.verdict.confident) return;
         resolvedByLint = true;
         if (!lint.verdict.isAui) return;
         const auto confidence = static_cast<float>(lint.verdict.score);
         for (const Rect& box : lint.verdict.upoBoxes) {
           detections.push_back({box, dataset::BoxLabel::kUpo, confidence});
         }
         for (const Rect& box : lint.verdict.agoBoxes) {
           detections.push_back({box, dataset::BoxLabel::kAgo, confidence});
         }
       });

  // Screenshot: the vault takes custody of a usable capture. Only a usable
  // (non-empty) capture is counted and priced; a failed one is recorded as
  // a skip and skips detection too.
  step(Stage::kScreenshot, !fromCache && !resolvedByLint, [&] {
    gfx::Bitmap shot = takeScreenshot();
    screenshotOk = wm != nullptr && !shot.empty();
    if (!screenshotOk) {
      // A failed capture is not billable work and must not drift the
      // stats: no screenshot was taken, so none is counted, priced, or
      // vaulted.
      ledger_.recordSkip(Stage::kScreenshot);
      return;
    }
    ledger_.recordScreenshot(shot.pixelBytes());
    vault_.store(std::move(shot));
  });

  // Detect: the CV model over the held capture, on the session's thread.
  step(Stage::kDetect, !fromCache && !resolvedByLint && screenshotOk, [&] {
    // §IV-E custody: the model reads the capture in place, and the vault
    // scrubs and frees it the moment the model returns.
    detections = detector_->detect(*vault_.current());
    vault_.rinse();
    ledger_.recordDetect(detector_->costMacsPerImage());
  });

  // Verdict: a screen is an AUI when at least one UPO is detected (the
  // detector's context features keep benign close buttons below threshold;
  // see §IV-C footnote 4). The verdict is stored in both cache tiers.
  step(Stage::kVerdict, !fromCache, [&] {
    isAui = std::any_of(detections.begin(), detections.end(),
                        [](const cv::Detection& det) {
                          return det.label == dataset::BoxLabel::kUpo;
                        });
    ledger_.recordVerdict();
    // Cache only verdicts that rest on real evidence (a lint resolution or
    // a usable capture), in both tiers: a transient screenshot failure must
    // stay one session's transient problem, never the fleet's verdict.
    if (wm == nullptr || !(resolvedByLint || screenshotOk)) return;
    verdictCache_.put(key, {isAui, detections});
    if (tier != nullptr) tier->publish(key, {isAui, detections});
  });

  // Act: the auto-bypass click or the decoration overlays. The §IV-D
  // anchor-overlay offset is measured inside decorate() — only this path
  // consumes it, so only this path pays for it. Act work is priced inside
  // the helpers.
  step(Stage::kAct, isAui, [&] {
    ledger_.recordAuiFlagged();
    if (config_.autoBypass) {
      tryBypass(detections);
    } else if (config_.decorate) {
      decorate(detections);
    }
  });

  lastDetections_ = detections;
  lastWasAui_ = isAui;
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
                      now - lastBypassAt_ < kBypassCooldown;
  if (repeat) return;
  // The cooldown covers attempts, not landed clicks: the dispatched gesture
  // itself raises touch events that re-trigger analysis, so an unconsumed
  // click retried every pass would spin the event loop forever.
  lastBypassBox_ = bestUpo->box;
  lastBypassAt_ = now;
  if (dispatchClick(bestUpo->box.center())) ledger_.recordBypass();
}

Point DarpaService::measureWindowOffset() {
  // §IV-D: Android exposes no API for the app-window offset, so DARPA adds
  // an invisible 1x1 anchor view at window coordinates (0, 0) and reads its
  // location on screen.
  android::WindowManager* wm = windowManager();
  if (wm == nullptr) return {0, 0};
  ledger_.recordAnchorMeasurement();
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
  // The product draws one highlighted escape option and one warning: the
  // most confident UPO and the most confident AGO (anything not a UPO
  // counts as an AGO), the earlier one in `detections` on a tie.
  const cv::Detection* best[2] = {nullptr, nullptr};  // {UPO, AGO}
  for (const cv::Detection& det : detections) {
    const cv::Detection*& slot =
        best[det.label == dataset::BoxLabel::kUpo ? 0 : 1];
    if (slot == nullptr || det.confidence > slot->confidence) slot = &det;
  }
  // Draw in descending confidence; on a tie the earlier detection first.
  if (best[0] != nullptr && best[1] != nullptr &&
      (best[1]->confidence > best[0]->confidence ||
       (best[1]->confidence == best[0]->confidence && best[1] < best[0]))) {
    std::swap(best[0], best[1]);
  }
  for (const cv::Detection* pick : best) {
    if (pick == nullptr) continue;
    const cv::Detection& det = *pick;
    const bool isUpo = det.label == dataset::BoxLabel::kUpo;
    const Color color = isUpo ? config_.upoColor : config_.agoColor;
    auto view = std::make_unique<DecorationView>(
        color, kDecorationThickness,
        isUpo ? config_.upoStyle : config_.agoStyle);
    // Grow the box so the border ring sits around the option, then convert
    // screen -> window coordinates with the measured offset (Fig. 6).
    const Rect target = det.box.inflated(kDecorationThickness + 1);
    android::LayoutParams lp;
    lp.x = target.x - windowOffset.x;
    lp.y = target.y - windowOffset.y;
    lp.width = target.width;
    lp.height = target.height;
    lp.type = android::LayoutParams::Type::kAccessibilityOverlay;
    decorationOverlayIds_.push_back(wm->addOverlay(std::move(view), lp));
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
