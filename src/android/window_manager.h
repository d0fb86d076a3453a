// Window manager: windows, system bars, compositing, input, UI dumps.
//
// Models the parts of Android's WindowManagerService that DARPA's design
// hinges on:
//
//  * An activity back-stack of application windows. Windows are either
//    full-screen or inset by the status/navigation bars — the latter is what
//    creates the screen-vs-window coordinate mismatch that §IV-D's anchor
//    view calibration solves (Fig. 4).
//  * Overlay views (WindowManager.addView) whose LayoutParams coordinates
//    are interpreted relative to the *current application window frame*, not
//    the screen. getLocationOnScreen() is only available for a caller's own
//    overlay views — app windows' view objects live in another process and
//    are not reachable, exactly the restriction the paper works around.
//  * Compositing all of the above (plus the system bars) into a Bitmap —
//    the "screenshot" the Accessibility Service hands to the CV model.
//  * An ADB-style UI hierarchy dump (resource ids + bounds + classes) that
//    the FraudDroid-like baseline consumes.
//  * Click dispatch with accessibility-event emission.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "android/accessibility_event.h"
#include "android/view.h"
#include "gfx/bitmap.h"
#include "util/thread_annotations.h"

namespace darpa::android {

/// Receives UI events from the window manager; implemented by the
/// AccessibilityManager (kept as an interface to break the dependency cycle).
class UiEventSink {
 public:
  virtual ~UiEventSink() = default;
  virtual void onUiEvent(const AccessibilityEvent& event) = 0;
};

/// Subset of android.view.WindowManager.LayoutParams used by overlays.
struct LayoutParams {
  enum class Type { kApplicationOverlay, kAccessibilityOverlay };
  int x = 0;
  int y = 0;
  int width = 0;
  int height = 0;
  Type type = Type::kAccessibilityOverlay;
};

/// One application window (activity) on the back stack.
class Window {
 public:
  Window(int id, std::string packageName, std::unique_ptr<View> content,
         bool fullscreen)
      : id_(id),
        packageName_(std::move(packageName)),
        content_(std::move(content)),
        fullscreen_(fullscreen) {}

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] const std::string& packageName() const { return packageName_; }
  [[nodiscard]] View& content() { return *content_; }
  [[nodiscard]] const View& content() const { return *content_; }
  [[nodiscard]] bool fullscreen() const { return fullscreen_; }

 private:
  friend class WindowManager;

  /// WindowManager::topWindowFingerprint()'s memo of this window: its
  /// fingerprint when its root view was at `version`.
  struct FingerprintMemo {
    bool valid = false;
    std::uint32_t version = 0;
    std::uint64_t fingerprint = 0;
  };

  int id_;
  std::string packageName_;
  std::unique_ptr<View> content_;
  bool fullscreen_;
  mutable FingerprintMemo memo_ CONFINED_TO("owning session");
};

/// One node of the ADB-style hierarchy dump. Besides the classic
/// uiautomator fields (class, resource id, bounds, clickable, text) the dump
/// carries the *declared* style attributes a static analyzer can read from a
/// layout file without rendering: background color, content (text/glyph)
/// color, and the effective alpha inherited down the tree. Nodes appear in
/// pre-order, so `depth` reconstructs the hierarchy and z-order (later
/// siblings draw on top).
///
/// Hybrid dumps: a WebView's virtual accessibility tree (webview.h) is
/// inlined below its host node with `isVirtual` set, `depth` continuing
/// past the host, and `resourceId` always empty — virtual nodes carry a
/// page-global `virtualId` instead, exactly the asymmetry §VI-C exploits.
struct UiNode {
  std::string className;
  std::string resourceId;  ///< Empty when obfuscated / dynamic / virtual.
  Rect boundsOnScreen;
  bool clickable = false;
  std::string text;  ///< TextView content, if any.
  int depth = 0;     ///< 0 for the window root; children are parent + 1.
  Color background = colors::kTransparent;  ///< Declared background color.
  Color contentColor = colors::kTransparent;  ///< Text/glyph color.
  bool hasContentColor = false;  ///< True for TextView/IconView nodes.
  double effAlpha = 1.0;  ///< View alpha multiplied through its ancestors.
  bool isVirtual = false;  ///< Node of a WebView's virtual subtree.
  std::string virtualId;   ///< Page-global DOM id; may be empty/duplicated.
};

using UiDump = std::vector<UiNode>;

class WindowManager {
 public:
  struct Config {
    Size screenSize{360, 720};
    int statusBarHeight = 24;
    int navBarHeight = 48;
  };

  // Defined out of line: Config's default member initializers are not
  // available for a default argument inside the still-incomplete class.
  WindowManager();
  explicit WindowManager(Config config);

  /// Event sink for accessibility-event emission (may be null). The sink
  /// must outlive the window manager.
  void setEventSink(UiEventSink* sink) { sink_ = sink; }
  /// Clock used to stamp events (may be null → time 0). Must outlive us.
  void setClock(const SimClock* clock) { clock_ = clock; }

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] Rect screenBounds() const {
    return {0, 0, config_.screenSize.width, config_.screenSize.height};
  }
  /// The frame an app window occupies given its full-screen flag.
  [[nodiscard]] Rect appFrame(bool fullscreen) const;

  // --- application windows (activity stack) -------------------------------
  /// Pushes a new app window on the stack; emits WINDOW_STATE_CHANGED and
  /// WINDOWS_CHANGED. Returns a non-owning pointer valid until the window is
  /// popped.
  Window* showAppWindow(std::string packageName, std::unique_ptr<View> content,
                        bool fullscreen);
  /// Pops the top window (back navigation); emits window events. No-op when
  /// the stack is empty.
  void popAppWindow();
  [[nodiscard]] Window* topAppWindow();
  [[nodiscard]] const Window* topAppWindow() const;
  [[nodiscard]] std::size_t appWindowCount() const { return appStack_.size(); }

  /// Apps call this after mutating their view tree; emits `burst`
  /// WINDOW_CONTENT_CHANGED events (real apps generate storms of them).
  void notifyContentChanged(int burst = 1);

  // --- overlay views (DARPA's decorations & anchor) ------------------------
  /// Adds an overlay view. LayoutParams (x, y) are relative to the current
  /// app window frame (Android positions TYPE_ACCESSIBILITY_OVERLAY views in
  /// window coordinates); the view is sized to (width, height). Returns an
  /// overlay id. Overlays added while no app window exists are positioned
  /// relative to the screen.
  int addOverlay(std::unique_ptr<View> view, const LayoutParams& params);
  /// Screen-space origin of one of *your own* overlay views — the only
  /// getLocationOnScreen the platform offers a third-party service, and the
  /// basis of the paper's anchor-view calibration trick.
  [[nodiscard]] std::optional<Point> overlayLocationOnScreen(int overlayId) const;
  [[nodiscard]] std::optional<Rect> overlayBoundsOnScreen(int overlayId) const;
  bool removeOverlay(int overlayId);
  void removeAllOverlays();
  [[nodiscard]] std::size_t overlayCount() const { return overlays_.size(); }

  // --- compositing ----------------------------------------------------------
  /// Renders the full screen: app windows bottom-up, system bars (unless the
  /// top window is full-screen), then overlays.
  [[nodiscard]] gfx::Bitmap composite() const;

  // --- introspection ---------------------------------------------------------
  /// ADB-style dump of the top app window's hierarchy (screen coordinates).
  [[nodiscard]] UiDump dumpTopWindow() const;

  /// Stable 64-bit fingerprint of a UI dump: a hash over every node's
  /// geometry, class, text, and declared style. Identical screens hash
  /// equal, so a re-stabilized unchanged screen (app switch back, dialog
  /// re-show) is recognizable without pixels; distinct screens collide
  /// only by 64-bit chance (no resistance against a crafted tree). DARPA's
  /// own overlay views never poison the fingerprint: the dump only covers
  /// the top *app* window, and decoration nodes are skipped defensively
  /// besides.
  ///
  /// The hash never leans on resource ids alone — class, bounds, text,
  /// depth and style all mix in, and virtual (WebView) nodes additionally
  /// mix their page-global virtualId and a virtual marker — so
  /// all-empty-`resourceId` virtual subtrees still fingerprint apart when
  /// structurally distinct. Each node's words go into four independent
  /// mix chains, one 64-bit word per multiply in each, and strings go in
  /// as whole 8-byte words plus one tail word read inside the string.
  /// Values are in-process cache keys only: nothing persists or orders by
  /// them.
  [[nodiscard]] static std::uint64_t fingerprint(const UiDump& dump);
  /// fingerprint(dumpTopWindow()) without building the dump: the verdict
  /// cache's probe key. One walk of the live view tree serves both this
  /// and dumpTopWindow(), and both fingerprints feed the same per-node
  /// hash, so the two values are equal by construction.
  ///
  /// Memoized per window: while the top window's root View::version() is
  /// that of the window's last walk, the stored value is returned without
  /// walking, also when the window comes back to the top after a pop.
  /// Every view mutator bumps that version, and a WebView's page is
  /// immutable once set. Builds with DARPA_BOUNDS_CHECKS re-walk on every
  /// memo hit and abort with "fingerprint memo is stale" on a mismatch,
  /// and check every walk against fingerprint(dumpTopWindow()), aborting
  /// with "fingerprint walk disagrees with its dump" and the window's id
  /// when the two differ.
  [[nodiscard]] std::uint64_t topWindowFingerprint() const;
  /// Calls of topWindowFingerprint() that walked the view tree: those the
  /// memo could not serve (a top window exists and was never walked, or
  /// its root's version moved since its last walk).
  [[nodiscard]] std::int64_t fingerprintWalks() const {
    return fingerprintWalks_;
  }

  // --- input ------------------------------------------------------------------
  /// Dispatches a tap at screen coordinates: overlays first (topmost wins),
  /// then the top app window. Emits TOUCH_INTERACTION and VIEW_CLICKED
  /// events. Returns the view that consumed the click, or nullptr.
  View* clickAt(Point screen);

 private:
  struct Overlay {
    int id;
    std::unique_ptr<View> view;
    Rect screenRect;  ///< Resolved at add time.
  };

  void emit(EventType type, const std::string& package);
  [[nodiscard]] Millis now() const { return clock_ ? clock_->now() : Millis{}; }

  Config config_;
  UiEventSink* sink_ = nullptr;
  const SimClock* clock_ = nullptr;
  std::vector<std::unique_ptr<Window>> appStack_;
  std::vector<Overlay> overlays_;
  int nextWindowId_ = 1;
  int nextOverlayId_ = 1;
  mutable std::int64_t fingerprintWalks_ CONFINED_TO("owning session") = 0;
};

}  // namespace darpa::android
