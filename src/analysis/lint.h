// Static AUI lint — rule-based analysis of layout trees, no pixels.
//
// The paper's run-time pipeline (§IV) only catches an asymmetric dark UI
// after a screenshot reaches the CV model. Owl Eyes and Nighthawk show that
// many UI defects are visible from structure alone; the same is true of the
// paper's AUI definition (§III): a user-preferred option that is tiny,
// corner-pinned, and low-contrast next to a dominant app-guided option is an
// *asymmetry of declared geometry and style*, all of which is present in the
// ADB-style hierarchy dump. This module walks a UiDump and emits structured
// diagnostics (rule id, severity, view path, bounding box), then merges them
// into an AUI verdict comparable to baselines::FraudDroidResult.
//
// Two consumers:
//  * DarpaService uses the verdict as an optional pre-filter: screens the
//    lint clears or flags *confidently* skip the screenshot + CV stage
//    entirely (a lint pass costs microseconds of modeled work; a CV pass
//    costs tens of CPU-milliseconds).
//  * examples/static_scan.cpp runs it as an offline market-scan mode over
//    app populations with no detector in the loop at all.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "android/window_manager.h"
#include "util/color.h"
#include "util/geometry.h"

namespace darpa::analysis {

/// Diagnostic severity.
enum class Severity { kInfo = 0, kWarning = 1, kError = 2 };

/// Rule ids, shared by the rule that emits each and the merge that reads it.
inline constexpr std::string_view kSizeAsymmetryId = "aui-size-asymmetry";
inline constexpr std::string_view kCornerUpoId = "aui-corner-upo";
inline constexpr std::string_view kContrastAsymmetryId =
    "aui-contrast-asymmetry";
inline constexpr std::string_view kTouchTargetId = "touch-target";
inline constexpr std::string_view kHiddenClickableId = "hidden-clickable";
inline constexpr std::string_view kIdHintId = "aui-id-hint";

/// Option geometry shared by the asymmetry rules and the merge: a clickable
/// is "dominant" from this fraction of the window area...
inline constexpr double kMinDominantAreaFrac = 0.02;
/// ...and a dismiss candidate when its area and its short side are at most
/// these (close crosses, "skip" strips).
inline constexpr std::int64_t kMaxDismissArea = 2600;
inline constexpr int kMaxDismissMinSide = 28;

/// One structured diagnostic emitted by a rule.
struct LintFinding {
  std::string ruleId;
  Severity severity = Severity::kInfo;
  std::string message;
  std::string viewPath;  ///< "View/View[2]/IconView"-style path to the node.
  int nodeIndex = -1;    ///< Index into the analyzed dump.
  Rect box;              ///< Screen coordinates of the offending view.
  double score = 0.0;    ///< Rule confidence in [0, 1].
  /// Id-hint hits on app-guided (CTA) vocabulary; the merge files their
  /// boxes as AGO instead of UPO.
  bool ago = false;
};

/// Merged screen-level verdict, shaped like baselines::FraudDroidResult so
/// harnesses can score the two metadata detectors side by side.
struct LintVerdict {
  bool isAui = false;
  double score = 0.0;     ///< Merged AUI confidence in [0, 1].
  bool confident = false; ///< Score clear of the merge's margins; the
                          ///< runtime may short-circuit CV on this.
  std::vector<Rect> upoBoxes;  ///< Screen coords of suspected user options.
  std::vector<Rect> agoBoxes;  ///< Screen coords of suspected app options.
};

struct LintReport {
  std::vector<LintFinding> findings;
  LintVerdict verdict;
  int nodesVisited = 0;

  [[nodiscard]] bool has(std::string_view ruleId) const;
  /// Highest-scoring finding of a rule; nullptr when the rule didn't fire.
  [[nodiscard]] const LintFinding* best(std::string_view ruleId) const;
};

/// Pre-computed screen structure shared by every rule: hierarchy ranges
/// reconstructed from the pre-order dump, the modal scaffolding (scrim and
/// panel), and the clickable-option inventory the asymmetry rules compare.
class LintContext {
 public:
  LintContext(const android::UiDump& dump, Size screenSize);
  /// The context borrows the dump; a temporary would dangle immediately.
  LintContext(android::UiDump&& dump, Size screenSize) = delete;

  [[nodiscard]] const android::UiDump& dump() const { return *dump_; }
  [[nodiscard]] Size screenSize() const { return screenSize_; }
  /// Bounds of the window root (falls back to the screen when empty).
  [[nodiscard]] const Rect& windowRect() const { return windowRect_; }
  [[nodiscard]] const std::string& path(int i) const { return paths_[i]; }
  [[nodiscard]] int parent(int i) const { return parents_[i]; }
  /// Exclusive end of node i's pre-order subtree range.
  [[nodiscard]] int subtreeEnd(int i) const { return subtreeEnd_[i]; }
  [[nodiscard]] bool isDescendant(int node, int ancestor) const {
    return node > ancestor && node < subtreeEnd_[ancestor];
  }

  /// Modal scaffolding: a translucent full-window scrim and the opaque
  /// dialog panel above it. -1 when absent.
  [[nodiscard]] int scrimIndex() const { return scrimIndex_; }
  [[nodiscard]] int panelIndex() const { return panelIndex_; }
  /// Panel bounds; the window rect when no panel was identified.
  [[nodiscard]] const Rect& panelRect() const { return panelRect_; }
  [[nodiscard]] bool modal() const { return scrimIndex_ >= 0; }

  /// Indices of clickable nodes with non-empty bounds, in paint order.
  [[nodiscard]] const std::vector<int>& clickables() const {
    return clickables_;
  }
  /// Largest-area clickable covering >= kMinDominantAreaFrac of the window;
  /// -1 when none qualifies.
  [[nodiscard]] int dominantClickable() const { return dominant_; }
  /// Clickables sized like dismiss affordances: area <= kMaxDismissArea and
  /// min side <= kMaxDismissMinSide, in paint order.
  [[nodiscard]] const std::vector<int>& dismissCandidates() const {
    return dismiss_;
  }
  /// Whether the screen offers two comparably prominent clickable options —
  /// the paper's footnote-4 symmetric dialog that must NOT count as AUI.
  [[nodiscard]] bool symmetricPair() const { return symmetricPair_; }

  /// Declared background color composited down the ancestor chain at node i
  /// (each ancestor's background source-over blended, weighted by alpha).
  [[nodiscard]] Color effectiveBackdrop(int i) const;

 private:
  const android::UiDump* dump_;
  Size screenSize_;
  Rect windowRect_;
  std::vector<int> parents_;
  std::vector<int> subtreeEnd_;
  std::vector<std::string> paths_;
  std::vector<int> clickables_;
  int dominant_ = -1;
  std::vector<int> dismiss_;
  int scrimIndex_ = -1;
  int panelIndex_ = -1;
  Rect panelRect_;
  bool symmetricPair_ = false;
};

// --------------------------------------------------------------- rules
// Each rule inspects the context and appends its findings. LintEngine::run
// calls them in the order declared here; the order is part of the output,
// because the merge keeps the first of near-duplicate option boxes.

/// "aui-size-asymmetry": a tiny dismiss-sized clickable coexists with a
/// dominant clickable surface (the dominant CTA / whole-creative ad).
void runSizeAsymmetry(const LintContext& ctx, std::vector<LintFinding>& out);

/// "aui-corner-upo": the suspected user-preferred option hugs a corner or
/// edge of the modal panel while a dominant option sits centrally (§III-A:
/// 73.1 % of UPOs are corner-pinned, 94.6 % of AGOs central).
void runCornerPlacement(const LintContext& ctx, std::vector<LintFinding>& out);

/// "aui-contrast-asymmetry": from declared colors alone, the app-guided
/// option is visually loud (high contrast against its surround) while the
/// dismiss option is muted or nearly transparent (ghost UPOs, §VI-B).
void runContrastAsymmetry(const LintContext& ctx,
                          std::vector<LintFinding>& out);

/// "touch-target": clickable view smaller than the Android accessibility
/// minimum (48 dp equivalent), always at warning severity. A hygiene rule
/// on its own, and the sub-48dp escape option is one of the paper's
/// recurring AUI traits.
void runTouchTarget(const LintContext& ctx, std::vector<LintFinding>& out);

/// "hidden-clickable": a clickable view rendered off-screen or fully
/// occluded by a later-painted opaque sibling — Nighthawk-style display
/// issues that make an escape option unusable while still technically
/// present in the hierarchy.
void runHiddenClickable(const LintContext& ctx, std::vector<LintFinding>& out);

/// "aui-id-hint": FraudDroid's resource-id vocabulary (small clickable with
/// a dismiss token, prominent view with a CTA token), always at info
/// severity: obfuscation starves it (§VI-C), so it corroborates the
/// structural rules rather than deciding on its own. Virtual (WebView)
/// nodes never carry resource ids, so their page-global ids and visible
/// labels are matched instead, at reduced confidence (minified,
/// duplicated, page-controlled).
void runIdHint(const LintContext& ctx, std::vector<LintFinding>& out);

// -------------------------------------------------------------- engine

/// The fixed rule set above plus the verdict merge. Stateless.
class LintEngine {
 public:
  /// Runs every rule over one dump and merges findings into a verdict.
  [[nodiscard]] LintReport run(const android::UiDump& dump,
                               Size screenSize) const;

  /// An engine; every engine runs the same fixed rule set.
  [[nodiscard]] static LintEngine withDefaultRules() { return {}; }
};

}  // namespace darpa::analysis
