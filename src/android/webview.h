// A simulated android.webkit.WebView hosting a *virtual* accessibility
// node tree — the §VI-C worst case for string-based AUI detection.
//
// Real WebViews expose their page to accessibility services as virtual
// nodes behind one native view: Chromium flattens the DOM into a shallow
// forest of AccessibilityNodeInfo records whose ids are page-global DOM
// strings (often minified, duplicated, or absent) and whose classNames are
// a coarse role mapping ("android.view.View", "android.widget.Button"...).
// Crucially there are *no Android resource ids anywhere* in the subtree,
// which is what collapses FraudDroid-style id matching and forces the
// structural lint + CV layers to carry detection.
//
// The virtual tree here mirrors that shape:
//  * VirtualNode bounds are stored in *page coordinates* (relative to the
//    WebView's origin), already flattened — a node's bounds are absolute
//    within the page, not relative to its parent. Only opacity cascades.
//  * virtualId is a page-global string that may be empty or duplicated
//    across nodes (web pages reuse ids all the time, standards be damned).
//  * Rendering goes through the same gfx::Canvas primitives as native
//    views, so a web interstitial composites into pixels a CV model cannot
//    tell from a native one.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "android/view.h"

namespace darpa::android {

/// Coarse accessibility role of a virtual node, mirroring the Chromium
/// role → Android-class mapping.
enum class VirtualRole {
  kWebArea,           ///< Page root; exposed with the host's class name.
  kGenericContainer,  ///< div/section → "android.view.View".
  kImage,             ///< img/canvas  → "android.widget.Image".
  kStaticText,        ///< text runs   → "android.view.View" with text.
  kButton,            ///< button      → "android.widget.Button".
  kLink,              ///< a[href]     → "android.view.View" (clickable).
};

/// Android class name a virtual role is exposed as in the hierarchy dump.
[[nodiscard]] std::string_view virtualRoleClassName(VirtualRole role);

/// One node of a WebView's virtual accessibility tree. Plain aggregate:
/// pages are built by value and handed to WebView::setPage.
struct VirtualNode {
  VirtualRole role = VirtualRole::kGenericContainer;
  /// Page-global DOM id. May be empty (most nodes) or duplicated (real
  /// pages reuse ids); never an Android resource id.
  std::string virtualId;
  /// Bounds in page coordinates — relative to the WebView origin, NOT to
  /// the parent node (the tree arrives pre-flattened, like Chromium's).
  Rect bounds;
  bool clickable = false;
  std::string text;  ///< Visible text for kStaticText/kButton/kLink.
  /// CSS background-color; web dim-overlays carry their opacity in the
  /// alpha channel (rgba), unlike native scrims which use view alpha.
  Color background = colors::kTransparent;
  Color contentColor = colors::kBlack;  ///< Text / glyph color.
  /// CSS opacity in [0, 1]; multiplies into descendants.
  double opacity = 1.0;
  int cornerRadius = 0;
  bool crossGlyph = false;       ///< Paint an x glyph (close affordances).
  std::uint64_t patternSeed = 0;  ///< kImage procedural creative seed.
  std::vector<VirtualNode> children;
};

/// Simulated android.webkit.WebView. A native leaf view from the Android
/// toolkit's perspective whose accessibility payload is the virtual tree.
class WebView : public View {
 public:
  WebView() : View(Kind::kWeb) {}
  [[nodiscard]] std::string_view className() const override {
    return "android.webkit.WebView";
  }

  /// Installs the page's virtual tree (replacing any previous page). The
  /// page is immutable once installed: only setPage and clearPage change
  /// it, and both touch() the view.
  void setPage(VirtualNode root) {
    page_ = std::move(root);
    hasPage_ = true;
    touch();
  }
  void clearPage() {
    hasPage_ = false;
    touch();
  }
  [[nodiscard]] bool hasPage() const { return hasPage_; }
  /// Page root; nullptr when no page is loaded.
  [[nodiscard]] const VirtualNode* page() const {
    return hasPage_ ? &page_ : nullptr;
  }

  /// Iterative pre-order visit of the virtual tree. `depth` is 0 for the
  /// page root; `effOpacity` is the node's opacity multiplied through its
  /// virtual ancestors (the native alpha chain is NOT included — callers
  /// fold in the host view's effective alpha themselves). Uses an explicit
  /// stack, never recursion: real pages nest hundreds of levels deep and a
  /// hostile page must not be able to overflow the service's stack.
  void forEachVirtual(
      const std::function<void(const VirtualNode&, int depth,
                               double effOpacity)>& fn) const;

  /// First virtual node (pre-order) whose virtualId equals `id`; nullptr
  /// when absent or `id` is empty (empty ids are non-identifying — a page
  /// has many of them, so "find the empty id" is never meaningful).
  [[nodiscard]] const VirtualNode* findVirtual(std::string_view id) const;

  /// Bounds of findVirtual(id) translated into this view tree's root
  /// coordinates (the node's page bounds carried through the host view's
  /// position). Empty rect when the id does not resolve.
  [[nodiscard]] Rect virtualBoundsInRoot(std::string_view id) const;

  /// Number of nodes in the virtual tree (0 when no page).
  [[nodiscard]] int virtualNodeCount() const;

  /// Routes hits to the page: if a visible clickable virtual node contains
  /// the point, the WebView consumes the click (the native toolkit sees
  /// the WebView itself as the target — virtual nodes have no native
  /// identity). Falls back to plain View behavior otherwise.
  [[nodiscard]] View* hitTest(Point p) override;

 protected:
  /// Paints the page with the same primitives native views use, so web
  /// and native screens are indistinguishable at the pixel level.
  void paintContent(gfx::Canvas& canvas, const Rect& absRect,
                    double effAlpha) const override;

 private:
  VirtualNode page_;
  bool hasPage_ = false;
};

}  // namespace darpa::android
