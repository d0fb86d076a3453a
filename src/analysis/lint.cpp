// Lint context construction, the engine, and its verdict merge. The rules
// live in rules.cpp.
#include "analysis/lint.h"

#include <algorithm>
#include <cmath>

namespace darpa::analysis {

namespace {

/// Fraction of `window` covered by `r`.
double coverage(const Rect& r, const Rect& window) {
  if (window.empty()) return 0.0;
  return static_cast<double>(r.intersect(window).area()) /
         static_cast<double>(window.area());
}

}  // namespace

bool LintReport::has(std::string_view ruleId) const {
  return best(ruleId) != nullptr;
}

const LintFinding* LintReport::best(std::string_view ruleId) const {
  const LintFinding* result = nullptr;
  for (const LintFinding& f : findings) {
    if (f.ruleId != ruleId) continue;
    if (result == nullptr || f.score > result->score) result = &f;
  }
  return result;
}

LintContext::LintContext(const android::UiDump& dump, Size screenSize)
    : dump_(&dump), screenSize_(screenSize) {
  const int n = static_cast<int>(dump.size());
  windowRect_ = n > 0 && !dump[0].boundsOnScreen.empty()
                    ? dump[0].boundsOnScreen
                    : Rect{0, 0, screenSize.width, screenSize.height};
  panelRect_ = windowRect_;

  // Parents, subtree ranges, and paths from the pre-order depth sequence.
  parents_.assign(n, -1);
  subtreeEnd_.assign(n, n);
  paths_.resize(n);
  std::vector<int> stack;  // indices of open ancestors
  std::vector<int> childCount(n, 0);
  for (int i = 0; i < n; ++i) {
    while (!stack.empty() && dump[stack.back()].depth >= dump[i].depth) {
      subtreeEnd_[stack.back()] = i;
      stack.pop_back();
    }
    if (!stack.empty()) {
      const int parent = stack.back();
      parents_[i] = parent;
      const int sibling = childCount[parent]++;
      paths_[i] = paths_[parent] + "/" + dump[i].className;
      if (sibling > 0) {
        paths_[i] += '[';
        paths_[i] += std::to_string(sibling);
        paths_[i] += ']';
      }
    } else {
      paths_[i] = dump[i].className;
    }
    stack.push_back(i);
  }

  // Option inventory: every clickable, the dominant one, and the
  // dismiss-sized ones.
  const double minDominantArea =
      kMinDominantAreaFrac * static_cast<double>(windowRect_.area());
  std::int64_t dominantArea = 0;
  for (int i = 0; i < n; ++i) {
    const Rect& b = dump[i].boundsOnScreen;
    if (!dump[i].clickable || b.empty()) continue;
    clickables_.push_back(i);
    if (static_cast<double>(b.area()) >= minDominantArea &&
        b.area() > dominantArea) {
      dominantArea = b.area();
      dominant_ = i;
    }
    if (b.area() <= kMaxDismissArea &&
        std::min(b.width, b.height) <= kMaxDismissMinSide) {
      dismiss_.push_back(i);
    }
  }

  // Modal scaffolding. The scrim is a translucent, non-clickable veil
  // covering (nearly) the whole window; the topmost one wins. The panel is
  // the first opaque, non-clickable mid-sized surface painted above it.
  for (int i = 1; i < n; ++i) {
    const android::UiNode& node = dump[i];
    if (node.clickable || node.background.a != 255) continue;
    if (coverage(node.boundsOnScreen, windowRect_) < 0.9) continue;
    if (node.effAlpha < 0.08 || node.effAlpha > 0.92) continue;
    scrimIndex_ = i;
  }
  if (scrimIndex_ >= 0) {
    const double windowArea = static_cast<double>(windowRect_.area());
    for (int i = scrimIndex_ + 1; i < n; ++i) {
      const android::UiNode& node = dump[i];
      if (node.clickable || node.background.a != 255) continue;
      if (node.effAlpha < 0.92) continue;
      const double frac =
          static_cast<double>(node.boundsOnScreen.area()) / windowArea;
      if (frac < 0.08 || frac > 0.85) continue;
      panelIndex_ = i;
      panelRect_ = node.boundsOnScreen;
      break;
    }
  }

  // Symmetric prominent pair (footnote 4): the two largest tappable options
  // are comparable in size, both finger-sized, and disjoint.
  std::vector<int> prominent;
  for (int i : clickables_) {
    const Rect& b = dump[i].boundsOnScreen;
    if (b.area() >= 1800 && std::min(b.width, b.height) >= 32) {
      prominent.push_back(i);
    }
  }
  std::sort(prominent.begin(), prominent.end(), [&](int a, int b) {
    return dump[a].boundsOnScreen.area() > dump[b].boundsOnScreen.area();
  });
  if (prominent.size() >= 2) {
    const Rect& first = dump[prominent[0]].boundsOnScreen;
    const Rect& second = dump[prominent[1]].boundsOnScreen;
    const double ratio = static_cast<double>(first.area()) /
                         static_cast<double>(std::max<std::int64_t>(
                             1, second.area()));
    symmetricPair_ = ratio <= 1.6 && first.intersect(second).empty();
  }
}

Color LintContext::effectiveBackdrop(int i) const {
  // Pre-order index order is paint order for backgrounds: every node with a
  // smaller index that contains this node's center is painted beneath it.
  const Point center = (*dump_)[i].boundsOnScreen.center();
  Color color = colors::kWhite;
  for (int j = 0; j < i; ++j) {
    const android::UiNode& node = (*dump_)[j];
    if (node.background.a == 0) continue;
    if (!node.boundsOnScreen.contains(center)) continue;
    const auto alpha = static_cast<std::uint8_t>(
        std::lround(node.background.a * node.effAlpha));
    color = blend(color, node.background.withAlpha(alpha));
  }
  return color;
}

namespace {

/// Verdict merge: one aggregated score per rule, weighted...
constexpr double kSizeAsymmetryWeight = 0.35;
constexpr double kCornerUpoWeight = 0.25;
constexpr double kContrastAsymmetryWeight = 0.25;
constexpr double kIdHintWeight = 0.10;
constexpr double kTouchTargetWeight = 0.05;
constexpr double kHiddenClickableWeight = 0.05;
/// ...then adjusted for screen structure: modal scaffolding is AUI-shaped,
/// a symmetric option pair is the footnote-4 benign dialog.
constexpr double kModalBonus = 0.15;
constexpr double kSymmetricPairPenalty = 0.25;
/// A merged score at or above this flags the screen as AUI...
constexpr double kAuiThreshold = 0.45;
/// ...and the verdict is `confident` outside these margins.
constexpr double kConfidentAuiScore = 0.60;
constexpr double kConfidentCleanScore = 0.15;
/// Suspected option boxes overlapping an earlier one by more than this IoU
/// collapse into it.
constexpr double kDuplicateBoxIou = 0.5;

bool isStructural(std::string_view ruleId) {
  return ruleId == kSizeAsymmetryId || ruleId == kCornerUpoId ||
         ruleId == kContrastAsymmetryId;
}

LintVerdict merge(const LintContext& ctx,
                  const std::vector<LintFinding>& findings) {
  // Aggregate one score per rule: the best finding, except the id-hint rule
  // whose UPO/AGO hits corroborate each other and therefore sum (capped).
  auto ruleScore = [&](std::string_view ruleId, bool sum) {
    double aggregated = 0.0;
    for (const LintFinding& f : findings) {
      if (f.ruleId != ruleId) continue;
      aggregated = sum ? aggregated + f.score : std::max(aggregated, f.score);
    }
    return std::min(1.0, aggregated);
  };
  // The structural asymmetry rules must carry the verdict: hygiene findings
  // (touch targets, id vocabulary) alone never flag a screen.
  const bool structural =
      std::any_of(findings.begin(), findings.end(), [](const LintFinding& f) {
        return f.severity >= Severity::kWarning && isStructural(f.ruleId);
      });

  LintVerdict verdict;
  double score = kSizeAsymmetryWeight * ruleScore(kSizeAsymmetryId, false) +
                 kCornerUpoWeight * ruleScore(kCornerUpoId, false) +
                 kContrastAsymmetryWeight *
                     ruleScore(kContrastAsymmetryId, false) +
                 kIdHintWeight * ruleScore(kIdHintId, true) +
                 kTouchTargetWeight * ruleScore(kTouchTargetId, false) +
                 kHiddenClickableWeight * ruleScore(kHiddenClickableId, false);
  if (ctx.modal()) score += kModalBonus;
  if (ctx.symmetricPair()) score -= kSymmetricPairPenalty;
  verdict.score = std::clamp(score, 0.0, 1.0);
  verdict.isAui = verdict.score >= kAuiThreshold && structural;
  verdict.confident = verdict.isAui ? verdict.score >= kConfidentAuiScore
                                    : verdict.score <= kConfidentCleanScore;

  // Suspected option boxes, FraudDroidResult-shaped: dismiss-flavored
  // findings become UPO boxes; the dominant option and CTA-id hits AGO
  // boxes. Near-duplicates collapse to the first seen.
  auto pushUnique = [](std::vector<Rect>& boxes, const Rect& box) {
    if (box.empty()) return;
    for (const Rect& seen : boxes) {
      if (iou(seen, box) > kDuplicateBoxIou) return;
    }
    boxes.push_back(box);
  };
  for (const LintFinding& f : findings) {
    if (isStructural(f.ruleId)) {
      pushUnique(verdict.upoBoxes, f.box);
    } else if (f.ruleId == kIdHintId) {
      pushUnique(f.ago ? verdict.agoBoxes : verdict.upoBoxes, f.box);
    }
  }
  if (const int dominant = ctx.dominantClickable(); dominant >= 0) {
    pushUnique(verdict.agoBoxes, ctx.dump()[dominant].boundsOnScreen);
  }
  return verdict;
}

}  // namespace

LintReport LintEngine::run(const android::UiDump& dump,
                           Size screenSize) const {
  LintReport report;
  report.nodesVisited = static_cast<int>(dump.size());
  const LintContext ctx(dump, screenSize);
  runSizeAsymmetry(ctx, report.findings);
  runCornerPlacement(ctx, report.findings);
  runContrastAsymmetry(ctx, report.findings);
  runTouchTarget(ctx, report.findings);
  runHiddenClickable(ctx, report.findings);
  runIdHint(ctx, report.findings);
  report.verdict = merge(ctx, report.findings);
  return report;
}

}  // namespace darpa::analysis
