// DarpaService — the paper's primary contribution, end to end.
//
// Implements the Fig.-5 life-cycle as an AccessibilityService:
//
//   1. Event registration: subscribes to all 23 accessibility event types
//      with a 200 ms notification delay.
//   2. Event delivery: every UI-update event resets a cut-off timer (ct);
//      a screen only gets analyzed once it has been stable for ct — the
//      debounce that makes run-time CV affordable (§IV-B, Table VIII).
//   3. Analysis: analyzeNow() runs one pass — lint pre-filter,
//      screenshot, CV detection, verdict merge, act — behind a
//      screen-fingerprint verdict cache (core/verdict_cache.h) that
//      short-circuits re-stabilized identical screens past the expensive
//      steps.
//   4. AUI decoration: detected options are highlighted with DecorationViews
//      added through WindowManager.addView, calibrating screen-to-window
//      coordinates with the invisible anchor-view trick (§IV-D, Fig. 4);
//      optionally the UPO is auto-clicked instead (the bypass mode).
//
// Every step of a pass either runs or records a skip, and every unit of
// work is priced and counted in the session's WorkLedger, which the
// simulated device's performance model consumes for Table VII/VIII
// accounting.
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>
#include <vector>

#include <set>

#include "android/accessibility.h"
#include "core/decoration.h"
#include "core/security.h"
#include "core/verdict_cache.h"
#include "core/work_ledger.h"
#include "cv/detector.h"

namespace darpa::analysis {
class LintEngine;
}

namespace darpa::core {

class SharedVerdictTier;

struct DarpaConfig {
  /// Cut-off time: analyze a screen only after it stayed stable this long.
  Millis cutoff{200};
  /// Notification delay registered with the Accessibility framework.
  Millis notificationDelay{200};
  /// Highlight the detected options with decoration views.
  bool decorate = true;
  /// Automatically click the UPO to dismiss the AUI (§IV-D's alternative).
  bool autoBypass = false;
  /// Decoration colors: UPO gets the attention color (users want it),
  /// AGO gets the warning color.
  Color upoColor = Color::rgb(30, 200, 80);
  Color agoColor = Color::rgb(230, 40, 40);
  /// User-customizable decoration shape (§IV-D: "we also allow users to
  /// customize the shape and color of the decoration view").
  DecorationStyle upoStyle = DecorationStyle::kRect;
  DecorationStyle agoStyle = DecorationStyle::kRect;
  /// Selective monitoring (§VI-D): when non-empty, events from these
  /// packages are ignored entirely — "selectively running DARPA on those
  /// less-trusted apps" cuts the overhead on trusted ones.
  std::set<std::string> trustedPackages;
  /// Optional static-lint pre-filter (borrowed; must outlive the service).
  /// When set, every stable screen is linted from its UI dump first — a
  /// zero-screenshot pass costing microseconds — and screens the lint
  /// clears or flags *confidently* skip the screenshot + CV stage entirely.
  /// Unconfident verdicts fall through to the full CV path.
  const analysis::LintEngine* lintPrefilter = nullptr;
  /// Capacity of the screen-fingerprint verdict cache (0 disables it). A
  /// re-stabilized structurally identical screen is served its previous
  /// verdict without lint, screenshot, or CV work.
  std::size_t verdictCacheCapacity = 32;
  /// Optional fleet-wide shared L2 behind the session cache (borrowed;
  /// must outlive the service). Probed on L1 miss, refilled by promotion,
  /// published to on evidence-backed verdicts. Null (the default) keeps the
  /// analysis byte-identical to the tier-less build. Fleets own one tier
  /// and point every session at it (FleetConfig::sharedVerdictTier).
  SharedVerdictTier* verdictTier = nullptr;
};

class DarpaService : public android::AccessibilityService {
 public:
  /// Border width of a decoration ring, in pixels.
  static constexpr int kDecorationThickness = 3;

  /// The detector is borrowed and must outlive the service.
  DarpaService(const cv::Detector& detector, DarpaConfig config = {});
  ~DarpaService() override;

  void onServiceConnected() override;
  void onAccessibilityEvent(const android::AccessibilityEvent& event) override;

  /// Listener invoked after every analysis with the AUI verdict; used by the
  /// coverage experiments. Cache-served analyses report their cached verdict
  /// here exactly like a freshly computed one.
  void setAnalysisListener(
      std::function<void(bool isAui, const std::vector<cv::Detection>&)>
          listener) {
    analysisListener_ = std::move(listener);
  }

  /// The session's counts, kept by the ledger.
  [[nodiscard]] const DarpaStats& stats() const { return ledger_.counts(); }
  [[nodiscard]] const DarpaConfig& darpaConfig() const { return config_; }
  [[nodiscard]] const ScreenshotVault& vault() const { return vault_; }
  [[nodiscard]] const PermissionManifest& permissions() const {
    return permissions_;
  }

  /// The session's account: every step's work and every count.
  [[nodiscard]] const WorkLedger& ledger() const { return ledger_; }

  /// The session's L1 screen-fingerprint verdict cache, for inspection.
  [[nodiscard]] const VerdictCache& verdictCache() const {
    return verdictCache_;
  }

  /// Detections from the most recent analysis (screen coordinates).
  [[nodiscard]] const std::vector<cv::Detection>& lastDetections() const {
    return lastDetections_;
  }
  [[nodiscard]] bool lastWasAui() const { return lastWasAui_; }

  /// Screen rects of the decoration overlays currently shown.
  [[nodiscard]] std::vector<Rect> decorationRects() const;

  /// Removes all decoration overlays (also done before every screenshot).
  void clearDecorations();

  /// Runs one analysis immediately (normally driven by the ct timer): the
  /// verdict-cache probe, then lint, screenshot, detect, verdict and act in
  /// order, each either run or recorded as skipped in the ledger. The pass
  /// is complete when this returns.
  void analyzeNow();

  // --- act helpers (driven by analyzeNow()'s act step) ---------------------
  /// Decorates the given detections, measuring the §IV-D window offset via
  /// the anchor-overlay trick first — the offset is only ever measured on
  /// this path, where it is actually consumed.
  void decorate(const std::vector<cv::Detection>& detections);

  /// Decorates a *virtual* (WebView) node by its page-global id: resolves
  /// the node's screen bounds through the top window's hybrid dump — the
  /// host WebView's position carries the page-coordinate bounds into
  /// screen space — and draws one decoration ring around it. Virtual
  /// nodes have no native View to anchor an overlay to, so targeting
  /// through the hosting view is the only route. Returns false when the
  /// id does not resolve in the current top window.
  bool decorateVirtualNode(std::string_view virtualId, bool asUpo = true);

 private:
  /// Clicks the most confident UPO, subject to the bypass cooldown.
  void tryBypass(const std::vector<cv::Detection>& detections);

  /// The §IV-D anchor-view trick: returns the current app window's offset
  /// on screen.
  [[nodiscard]] Point measureWindowOffset();
  void decorateDetections(const std::vector<cv::Detection>& detections,
                          Point windowOffset);

  const cv::Detector* detector_;
  DarpaConfig config_;
  PermissionManifest permissions_;
  ScreenshotVault vault_;
  WorkLedger ledger_;
  VerdictCache verdictCache_;  ///< The session L1; config_.verdictTier is L2.
  std::function<void(bool, const std::vector<cv::Detection>&)>
      analysisListener_;
  android::TaskId pendingAnalysis_ = 0;
  Rect lastBypassBox_;
  Millis lastBypassAt_{-1'000'000};
  std::vector<int> decorationOverlayIds_;
  std::vector<cv::Detection> lastDetections_;
  bool lastWasAui_ = false;
};

}  // namespace darpa::core
