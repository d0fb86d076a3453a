// The six lint rules. Each inspects the shared LintContext and appends
// structured findings; their thresholds are the fixed constants below.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <span>
#include <string>
#include <string_view>

#include "analysis/lint.h"
#include "baselines/frauddroid.h"

namespace darpa::analysis {

namespace {

/// aui-size-asymmetry: dominant-to-dismiss area ratio that starts a
/// finding, and the ratio at which its score saturates to 1.
constexpr double kMinAreaRatio = 10.0;
constexpr double kAreaSaturationRatio = 40.0;

/// aui-corner-upo: how close (px) to a panel corner or edge counts as
/// pinned.
constexpr int kCornerMargin = 14;

/// aui-contrast-asymmetry: AGO-to-UPO perceived-contrast ratio that starts
/// a finding, the ratio at which its score saturates, and the effective
/// alpha below which a dismiss option is a "ghost" on its own.
constexpr double kMinProminenceRatio = 1.35;
constexpr double kContrastSaturationRatio = 3.5;
constexpr double kGhostAlpha = 0.45;

/// touch-target: findings below the 48dp minimum side, with the score
/// saturating at the critical side.
constexpr int kMinTouchSidePx = 48;
constexpr int kCriticalTouchSidePx = 24;

/// hidden-clickable: the off-screen fraction that reports, and the
/// effective alpha from which a later-painted surface occludes.
constexpr double kMinOffscreenFrac = 0.5;
constexpr double kMinOccluderAlpha = 0.95;

/// aui-id-hint: the area cap on a dismiss-vocabulary hit. 90² px, the area
/// of FraudDroid's largest UPO — but an area cap, unlike FraudDroid's
/// per-side cap (baselines::kMaxUpoSide), so long strips such as a 200x30
/// "skip" bar still count.
constexpr std::int64_t kIdHintMaxUpoArea =
    std::int64_t{baselines::kMaxUpoSide} * baselines::kMaxUpoSide;
/// Scores of a native dismiss- and CTA-vocabulary hit; virtual (WebView)
/// hits are scaled down, because page-global ids and labels are weaker
/// evidence than resource ids.
constexpr double kIdHintUpoScore = 0.4;
constexpr double kIdHintAgoScore = 0.3;
constexpr double kVirtualEvidenceScale = 0.6;

LintFinding makeFinding(const LintContext& ctx, std::string_view ruleId,
                        int node, Severity severity, double score,
                        std::string message) {
  LintFinding finding;
  finding.ruleId = std::string(ruleId);
  finding.severity = severity;
  finding.score = std::clamp(score, 0.0, 1.0);
  finding.message = std::move(message);
  finding.nodeIndex = node;
  finding.viewPath = ctx.path(node);
  finding.box = ctx.dump()[node].boundsOnScreen;
  return finding;
}

std::string describeBox(const Rect& b) {
  return std::to_string(b.width) + "x" + std::to_string(b.height);
}

/// Perceived contrast of a node's declared ink: the stronger of glyph/text
/// against its plate and plate against the composited surround, faded by the
/// effective alpha (an option at alpha 0.2 reads at a fifth of its nominal
/// contrast).
double perceivedContrast(const LintContext& ctx, int node) {
  const android::UiNode& n = ctx.dump()[node];
  const Color surround = ctx.effectiveBackdrop(node);
  const Color plate =
      n.background.a > 0 ? blend(surround, n.background) : surround;
  double contrast = contrastRatio(plate, surround);
  if (n.hasContentColor) {
    contrast = std::max(contrast, contrastRatio(n.contentColor, plate));
  }
  return 1.0 + (contrast - 1.0) * n.effAlpha;
}

}  // namespace

void runSizeAsymmetry(const LintContext& ctx, std::vector<LintFinding>& out) {
  const int dominant = ctx.dominantClickable();
  if (dominant < 0) return;
  const android::UiNode& big = ctx.dump()[dominant];
  const double dominantFrac =
      static_cast<double>(big.boundsOnScreen.area()) /
      static_cast<double>(std::max<std::int64_t>(1, ctx.windowRect().area()));

  for (int i : ctx.dismissCandidates()) {
    if (i == dominant) continue;
    const Rect& small = ctx.dump()[i].boundsOnScreen;
    const double ratio =
        static_cast<double>(big.boundsOnScreen.area()) /
        static_cast<double>(std::max<std::int64_t>(1, small.area()));
    if (ratio < kMinAreaRatio) continue;

    double score = std::min(1.0, ratio / kAreaSaturationRatio);
    Severity severity = ratio >= 2.5 * kMinAreaRatio ? Severity::kError
                                                     : Severity::kWarning;
    if (ctx.symmetricPair()) {
      // The screen also offers two comparable options: the tiny control is
      // an ordinary close button on a symmetric dialog, not the only exit.
      severity = Severity::kInfo;
      score *= 0.25;
    } else if (!ctx.modal() && dominantFrac < 0.2) {
      // Outside a modal and without a screen-dominating surface this is a
      // banner-with-close shape, suspicious but not popup-shaped.
      severity = Severity::kWarning;
      score *= 0.5;
    }
    out.push_back(makeFinding(
        ctx, kSizeAsymmetryId, i, severity, score,
        "clickable " + describeBox(small) + " is " +
            std::to_string(static_cast<int>(ratio)) +
            "x smaller than the dominant option (" +
            describeBox(big.boundsOnScreen) + ")"));
  }
}

void runCornerPlacement(const LintContext& ctx,
                        std::vector<LintFinding>& out) {
  if (ctx.dominantClickable() < 0) return;
  const Rect& panel = ctx.panelRect();

  for (int i : ctx.dismissCandidates()) {
    const Rect& b = ctx.dump()[i].boundsOnScreen;
    const bool nearX = std::min(std::abs(b.left() - panel.left()),
                                std::abs(b.right() - panel.right())) <=
                       kCornerMargin;
    const bool nearY = std::min(std::abs(b.top() - panel.top()),
                                std::abs(b.bottom() - panel.bottom())) <=
                       kCornerMargin;
    // UPOs also float centered just below the panel (§III-A layouts).
    const bool belowPanel = b.top() >= panel.bottom() &&
                            b.top() - panel.bottom() <= 2 * kCornerMargin;
    double score = 0.0;
    const char* placement = nullptr;
    if (nearX && nearY) {
      score = 1.0;
      placement = "corner";
    } else if (nearX || nearY || belowPanel) {
      score = 0.65;
      placement = "edge";
    } else {
      continue;
    }
    if (!ctx.modal()) score *= 0.6;
    Severity severity = nearX && nearY && ctx.modal() ? Severity::kError
                                                      : Severity::kWarning;
    if (ctx.symmetricPair()) {
      severity = Severity::kInfo;
      score *= 0.4;
    }
    out.push_back(makeFinding(
        ctx, kCornerUpoId, i, severity, score,
        std::string("small dismiss option pinned to the ") + placement +
            " of the " + (ctx.panelIndex() >= 0 ? "dialog panel" : "window") +
            " while a dominant option sits inside"));
  }
}

void runContrastAsymmetry(const LintContext& ctx,
                          std::vector<LintFinding>& out) {
  // The loud side: the most prominent declared styling among large
  // clickables (the dominant surface itself may be an image with no declared
  // colors — a CTA button next to it still sets the loudness bar).
  const double minArea =
      kMinDominantAreaFrac * static_cast<double>(ctx.windowRect().area());
  double loudest = 0.0;
  bool haveLoud = false;
  for (int i : ctx.clickables()) {
    const android::UiNode& n = ctx.dump()[i];
    if (static_cast<double>(n.boundsOnScreen.area()) < minArea) continue;
    if (n.background.a == 0 && !n.hasContentColor) continue;
    loudest = std::max(loudest, perceivedContrast(ctx, i));
    haveLoud = true;
  }

  for (int i : ctx.dismissCandidates()) {
    const android::UiNode& n = ctx.dump()[i];
    if (n.effAlpha < kGhostAlpha) {
      out.push_back(makeFinding(
          ctx, kContrastAsymmetryId, i, Severity::kError, 1.0,
          "ghost dismiss option: effective alpha " +
              std::to_string(n.effAlpha).substr(0, 4) +
              " renders it nearly invisible"));
      continue;
    }
    if (!haveLoud) continue;
    const double muted = std::max(1.0, perceivedContrast(ctx, i));
    const double ratio = loudest / muted;
    if (ratio < kMinProminenceRatio) continue;
    double score = std::min(1.0, ratio / kContrastSaturationRatio);
    if (ctx.symmetricPair()) score *= 0.5;
    const Severity severity = ratio >= 2.0 ? Severity::kError
                                           : Severity::kWarning;
    out.push_back(makeFinding(
        ctx, kContrastAsymmetryId, i, severity, score,
        "declared contrast asymmetry: dismiss option reads at " +
            std::to_string(muted).substr(0, 4) + ":1 vs " +
            std::to_string(loudest).substr(0, 4) +
            ":1 for the app-guided option"));
  }
}

void runTouchTarget(const LintContext& ctx, std::vector<LintFinding>& out) {
  constexpr double kRange = kMinTouchSidePx - kCriticalTouchSidePx;
  for (int i : ctx.clickables()) {
    const Rect& b = ctx.dump()[i].boundsOnScreen;
    const int minSide = std::min(b.width, b.height);
    if (minSide >= kMinTouchSidePx) continue;
    const double score =
        std::clamp((kMinTouchSidePx - minSide) / kRange, 0.0, 1.0);
    out.push_back(makeFinding(
        ctx, kTouchTargetId, i, Severity::kWarning, score,
        "touch target " + describeBox(b) + " is below the 48dp minimum"));
  }
}

void runHiddenClickable(const LintContext& ctx,
                        std::vector<LintFinding>& out) {
  const Rect screen{0, 0, ctx.screenSize().width, ctx.screenSize().height};
  const android::UiDump& dump = ctx.dump();
  for (int i : ctx.clickables()) {
    const Rect& b = dump[i].boundsOnScreen;
    const double visibleFrac =
        static_cast<double>(b.intersect(screen).area()) /
        static_cast<double>(std::max<std::int64_t>(1, b.area()));
    if (1.0 - visibleFrac >= kMinOffscreenFrac) {
      out.push_back(makeFinding(
          ctx, kHiddenClickableId, i,
          visibleFrac <= 0.0 ? Severity::kError : Severity::kWarning,
          1.0 - visibleFrac,
          "clickable view is " +
              std::to_string(static_cast<int>((1.0 - visibleFrac) * 100)) +
              "% off-screen"));
      continue;
    }
    // Occlusion: any node painted after this view's subtree that covers it
    // with an opaque surface makes it unreachable (pre-order = paint order).
    for (int j = ctx.subtreeEnd(i); j < static_cast<int>(dump.size()); ++j) {
      const android::UiNode& over = dump[j];
      if (over.background.a != 255 || over.effAlpha < kMinOccluderAlpha) {
        continue;
      }
      if (!over.boundsOnScreen.contains(b)) continue;
      out.push_back(makeFinding(
          ctx, kHiddenClickableId, i, Severity::kError, 1.0,
          "clickable view is fully occluded by " + ctx.path(j)));
      break;
    }
  }
}

void runIdHint(const LintContext& ctx, std::vector<LintFinding>& out) {
  using baselines::FraudDroidDetector;
  const double minAgoArea = baselines::kMinAgoAreaFrac *
                            static_cast<double>(ctx.windowRect().area());
  const android::UiDump& dump = ctx.dump();
  for (int i = 0; i < static_cast<int>(dump.size()); ++i) {
    const android::UiNode& node = dump[i];
    const Rect& b = node.boundsOnScreen;
    if (b.empty()) continue;
    // Native nodes match their resource id. Virtual (WebView) nodes never
    // carry one, so they match the page-global virtual id and the visible
    // label (lowercased — web CTAs shout) at reduced confidence.
    std::string label;
    if (node.isVirtual) {
      label = node.text;
      std::transform(label.begin(), label.end(), label.begin(), [](char c) {
        return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      });
    } else if (node.resourceId.empty()) {
      continue;
    }
    auto matches = [&](std::span<const std::string_view> tokens) {
      if (!node.isVirtual) {
        return FraudDroidDetector::idMatchesAny(node.resourceId, tokens);
      }
      return FraudDroidDetector::idMatchesAny(node.virtualId, tokens) ||
             FraudDroidDetector::idMatchesAny(label, tokens);
    };
    auto subject = [&] {
      if (!node.isVirtual) return "resource id '" + node.resourceId + "'";
      return "virtual node '" +
             (node.virtualId.empty() ? label : node.virtualId) + "'";
    };
    const double scale = node.isVirtual ? kVirtualEvidenceScale : 1.0;
    if (node.clickable && b.area() <= kIdHintMaxUpoArea &&
        matches(baselines::kUpoIdTokens)) {
      out.push_back(makeFinding(ctx, kIdHintId, i, Severity::kInfo,
                                kIdHintUpoScore * scale,
                                "dismiss-vocabulary " + subject()));
    }
    if (static_cast<double>(b.area()) >= minAgoArea &&
        matches(baselines::kAgoIdTokens)) {
      out.push_back(makeFinding(ctx, kIdHintId, i, Severity::kInfo,
                                kIdHintAgoScore * scale,
                                "CTA-vocabulary " + subject()));
      out.back().ago = true;
    }
  }
}

}  // namespace darpa::analysis
