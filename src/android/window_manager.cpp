#include "android/window_manager.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "android/webview.h"

namespace darpa::android {

WindowManager::WindowManager() : WindowManager(Config{}) {}
WindowManager::WindowManager(Config config) : config_(config) {}

Rect WindowManager::appFrame(bool fullscreen) const {
  if (fullscreen) return screenBounds();
  return {0, config_.statusBarHeight, config_.screenSize.width,
          config_.screenSize.height - config_.statusBarHeight -
              config_.navBarHeight};
}

Window* WindowManager::showAppWindow(std::string packageName,
                                     std::unique_ptr<View> content,
                                     bool fullscreen) {
  const Rect frame = appFrame(fullscreen);
  content->setFrame({0, 0, frame.width, frame.height});
  appStack_.push_back(std::make_unique<Window>(
      nextWindowId_++, std::move(packageName), std::move(content), fullscreen));
  Window* w = appStack_.back().get();
  emit(EventType::kWindowStateChanged, w->packageName());
  emit(EventType::kWindowsChanged, w->packageName());
  return w;
}

void WindowManager::popAppWindow() {
  if (appStack_.empty()) return;
  const std::string package = appStack_.back()->packageName();
  appStack_.pop_back();
  emit(EventType::kWindowsChanged, package);
  if (!appStack_.empty()) {
    emit(EventType::kWindowStateChanged, appStack_.back()->packageName());
  }
}

Window* WindowManager::topAppWindow() {
  return appStack_.empty() ? nullptr : appStack_.back().get();
}

const Window* WindowManager::topAppWindow() const {
  return appStack_.empty() ? nullptr : appStack_.back().get();
}

void WindowManager::notifyContentChanged(int burst) {
  const Window* top = topAppWindow();
  const std::string package = top ? top->packageName() : std::string{};
  for (int i = 0; i < burst; ++i) {
    emit(EventType::kWindowContentChanged, package);
  }
}

int WindowManager::addOverlay(std::unique_ptr<View> view,
                              const LayoutParams& params) {
  const Window* top = topAppWindow();
  const Rect frame = top ? appFrame(top->fullscreen()) : screenBounds();
  const Rect screenRect{frame.x + params.x, frame.y + params.y, params.width,
                        params.height};
  view->setFrame(screenRect);
  overlays_.push_back(
      Overlay{nextOverlayId_++, std::move(view), screenRect});
  return overlays_.back().id;
}

std::optional<Point> WindowManager::overlayLocationOnScreen(
    int overlayId) const {
  if (auto r = overlayBoundsOnScreen(overlayId)) return Point{r->x, r->y};
  return std::nullopt;
}

std::optional<Rect> WindowManager::overlayBoundsOnScreen(int overlayId) const {
  for (const Overlay& o : overlays_) {
    if (o.id == overlayId) return o.screenRect;
  }
  return std::nullopt;
}

bool WindowManager::removeOverlay(int overlayId) {
  const auto it =
      std::find_if(overlays_.begin(), overlays_.end(),
                   [&](const Overlay& o) { return o.id == overlayId; });
  if (it == overlays_.end()) return false;
  overlays_.erase(it);
  return true;
}

void WindowManager::removeAllOverlays() { overlays_.clear(); }

gfx::Bitmap WindowManager::composite() const {
  gfx::Bitmap screen(config_.screenSize.width, config_.screenSize.height,
                     colors::kBlack);
  gfx::Canvas canvas(screen);

  // Application windows, bottom-up. Each window paints inside its frame.
  for (const auto& window : appStack_) {
    const Rect frame = appFrame(window->fullscreen());
    window->content().draw(canvas, {frame.x, frame.y});
  }

  // System bars, unless the foreground window claimed the whole screen.
  const Window* top = topAppWindow();
  const bool barsVisible = top == nullptr || !top->fullscreen();
  if (barsVisible) {
    const Color barColor = Color::rgb(20, 20, 28);
    canvas.fillRect({0, 0, config_.screenSize.width, config_.statusBarHeight},
                    barColor);
    // Clock and signal glyphs so the status bar has realistic texture.
    canvas.drawPseudoText({6, 7}, "12:00", colors::kWhite, 2);
    canvas.fillCircle({config_.screenSize.width - 14, 12}, 4, colors::kWhite);
    canvas.fillRect({config_.screenSize.width - 30, 8, 8, 8},
                    colors::kLightGray);
    canvas.fillRect({0, config_.screenSize.height - config_.navBarHeight,
                     config_.screenSize.width, config_.navBarHeight},
                    barColor);
    const int navY = config_.screenSize.height - config_.navBarHeight / 2;
    const int cx = config_.screenSize.width / 2;
    canvas.strokeCircle({cx, navY}, 8, colors::kWhite, 2);
    canvas.fillRect({cx - 70, navY - 7, 14, 14}, colors::kWhite);
    canvas.drawLine({cx + 56, navY - 8}, {cx + 70, navY},
                    colors::kWhite);
    canvas.drawLine({cx + 70, navY}, {cx + 56, navY + 8}, colors::kWhite);
  }

  // Overlays (accessibility decorations) on top of everything.
  for (const Overlay& o : overlays_) {
    o.view->draw(canvas, {0, 0});
  }
  return screen;
}

namespace {

/// One node of the top window as the walk hands it to a sink. The strings
/// are borrowed from the live views (or from a UiNode), never copied.
struct NodeFields {
  std::string_view className;
  std::string_view resourceId;
  std::string_view text;
  Rect bounds;
  bool clickable = false;
  int depth = 0;
  Color background = colors::kTransparent;
  Color contentColor = colors::kTransparent;
  bool hasContentColor = false;
  double effAlpha = 1.0;
  bool isVirtual = false;
  std::string_view virtualId;
};

/// Pre-order walk of one view subtree in dump order: the view, then the
/// virtual tree of a WebView with a page, then the children. An invisible
/// view prunes its subtree. `origin` is the parent's screen position.
///
/// A page's virtual tree goes inline directly below its host: depth
/// continues past the host, bounds are carried into screen space through
/// the host's position, the host's effective alpha multiplies into every
/// node's opacity chain, and resourceId stays empty — virtual nodes only
/// ever have a page-global virtualId. forEachVirtual walks iteratively, so
/// hostile page depth cannot overflow the walking service's stack.
template <typename Sink>
void walkView(const View& view, Point origin, int depth, double parentAlpha,
              Sink& sink) {
  if (!view.visible()) return;
  NodeFields node;
  node.className = view.className();
  node.resourceId = view.resourceId();
  node.bounds = {origin.x + view.frame().x, origin.y + view.frame().y,
                 view.frame().width, view.frame().height};
  node.clickable = view.clickable();
  node.depth = depth;
  node.background = view.background();
  node.effAlpha = parentAlpha * view.alpha();
  // Only TextView, IconView and WebView construct these kinds, so each
  // cast names the view's real class (or a class derived from it).
  const WebView* web = nullptr;
  switch (view.kind()) {
    case View::Kind::kText: {
      const auto& text = static_cast<const TextView&>(view);
      node.text = text.text();
      node.contentColor = text.textColor();
      node.hasContentColor = true;
      break;
    }
    case View::Kind::kIcon:
      node.contentColor = static_cast<const IconView&>(view).glyphColor();
      node.hasContentColor = true;
      break;
    case View::Kind::kWeb:
      web = static_cast<const WebView*>(&view);
      break;
    case View::Kind::kPlain:
      break;
  }
  sink(node);
  if (web != nullptr && web->hasPage()) {
    web->forEachVirtual([&](const VirtualNode& vn, int virtualDepth,
                            double effOpacity) {
      NodeFields v;
      v.className = virtualRoleClassName(vn.role);
      v.text = vn.text;
      v.bounds = vn.bounds.translated(node.bounds.x, node.bounds.y);
      v.clickable = vn.clickable;
      v.depth = depth + 1 + virtualDepth;
      v.background = vn.background;
      if (!vn.text.empty() || vn.crossGlyph) {
        v.contentColor = vn.contentColor;
        v.hasContentColor = true;
      }
      v.effAlpha = node.effAlpha * effOpacity;
      v.isVirtual = true;
      v.virtualId = vn.virtualId;
      sink(v);
    });
  }
  for (const auto& child : view.children()) {
    walkView(*child, {node.bounds.x, node.bounds.y}, depth + 1, node.effAlpha,
             sink);
  }
}

/// Walks the top app window, if there is one, from its frame's origin.
template <typename Sink>
void walkTopWindow(const WindowManager& wm, Sink& sink) {
  const Window* top = wm.topAppWindow();
  if (top == nullptr) return;
  const Rect frame = wm.appFrame(top->fullscreen());
  walkView(top->content(), {frame.x, frame.y}, 0, 1.0, sink);
}

/// One mixing step: h takes one 64-bit word per multiply. For a fixed w
/// the step is a bijection of h, so two equal-length word streams that
/// differ in one word cannot collide.
constexpr std::uint64_t mix(std::uint64_t h, std::uint64_t w) {
  return (std::rotl(h, 5) ^ w) * 0x9E3779B97F4A7C15ULL;
}

/// The fingerprint sink. Each int is one word. A string goes in 8-byte
/// chunks, and its tail word carries the length in its top byte, so
/// ("ab","c") and ("a","bc") hash apart. A splitmix64 finalizer spreads
/// nearby inputs (bounds off by one pixel) across the whole word.
class Fingerprinter {
 public:
  void operator()(const NodeFields& node) {
    // Never hash DARPA's own decoration views: the fingerprint must be
    // identical before and after the service decorates a screen, or every
    // decorated screen would invalidate its own cache entry.
    if (node.className == "DarpaDecorationView") return;
    ++nodes_;
    addString(node.className);
    addString(node.resourceId);
    addString(node.text);
    addInt(node.bounds.x);
    addInt(node.bounds.y);
    addInt(node.bounds.width);
    addInt(node.bounds.height);
    addInt(node.depth);
    addInt(node.clickable ? 1 : 0);
    addInt(node.background.toArgb());
    addInt(node.hasContentColor
               ? static_cast<std::int64_t>(node.contentColor.toArgb())
               : std::int64_t{-1});
    // Alpha is a double; quantize to 1/1024 so float noise cannot split
    // visually identical screens into distinct fingerprints.
    addInt(static_cast<std::int64_t>(node.effAlpha * 1024.0));
    // Virtual (WebView) nodes have no resource id to mix, so their
    // page-global id enters the stream instead, plus a marker that keeps a
    // virtual node from colliding with a native one that happens to share
    // class/bounds/text. Only virtual nodes carry these two fields.
    if (node.isVirtual) {
      addString(node.virtualId);
      addInt(1);
    }
  }

  [[nodiscard]] std::uint64_t finish() const {
    std::uint64_t h = mix(h_, static_cast<std::uint64_t>(nodes_));
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
  }

 private:
  void addInt(std::int64_t v) { h_ = mix(h_, static_cast<std::uint64_t>(v)); }

  void addString(std::string_view s) {
    std::size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, s.data() + i, sizeof(word));
      h_ = mix(h_, word);
    }
    std::uint64_t tail = static_cast<std::uint64_t>(s.size()) << 56;
    for (std::size_t k = 0; i + k < s.size(); ++k) {
      tail |= std::uint64_t{static_cast<unsigned char>(s[i + k])} << (8 * k);
    }
    h_ = mix(h_, tail);
  }

  std::uint64_t h_ = 0x6A09E667F3BCC909ULL;
  std::int64_t nodes_ = 0;
};

}  // namespace

UiDump WindowManager::dumpTopWindow() const {
  UiDump dump;
  const auto append = [&dump](const NodeFields& f) {
    UiNode& node = dump.emplace_back();
    node.className = f.className;
    node.resourceId = f.resourceId;
    node.boundsOnScreen = f.bounds;
    node.clickable = f.clickable;
    node.text = f.text;
    node.depth = f.depth;
    node.background = f.background;
    node.contentColor = f.contentColor;
    node.hasContentColor = f.hasContentColor;
    node.effAlpha = f.effAlpha;
    node.isVirtual = f.isVirtual;
    node.virtualId = f.virtualId;
  };
  walkTopWindow(*this, append);
  return dump;
}

std::uint64_t WindowManager::fingerprint(const UiDump& dump) {
  Fingerprinter hash;
  for (const UiNode& n : dump) {
    hash({.className = n.className,
          .resourceId = n.resourceId,
          .text = n.text,
          .bounds = n.boundsOnScreen,
          .clickable = n.clickable,
          .depth = n.depth,
          .background = n.background,
          .contentColor = n.contentColor,
          .hasContentColor = n.hasContentColor,
          .effAlpha = n.effAlpha,
          .isVirtual = n.isVirtual,
          .virtualId = n.virtualId});
  }
  return hash.finish();
}

std::uint64_t WindowManager::topWindowFingerprint() const {
  const auto walk = [this] {
    Fingerprinter hash;
    walkTopWindow(*this, hash);
    return hash.finish();
  };
  const Window* top = topAppWindow();
  if (top == nullptr) return walk();
  Window::FingerprintMemo& memo = top->memo_;
  const std::uint32_t version = top->content().version();
  if (memo.valid && memo.version == version) {
#if DARPA_BOUNDS_CHECKS
    if (walk() != memo.fingerprint) {
      std::fprintf(stderr,
                   "fingerprint memo is stale: window %d, version %u; a "
                   "mutator skipped View::touch() or a className() "
                   "changed\n",
                   top->id(), version);
      std::abort();
    }
#endif
    return memo.fingerprint;
  }
  ++fingerprintWalks_;
  memo = {true, version, walk()};
  return memo.fingerprint;
}

View* WindowManager::clickAt(Point screen) {
  emit(EventType::kTouchInteractionStart,
       topAppWindow() ? topAppWindow()->packageName() : std::string{});
  // Overlays, topmost first.
  for (auto it = overlays_.rbegin(); it != overlays_.rend(); ++it) {
    const Point local{screen.x - it->screenRect.x,
                      screen.y - it->screenRect.y};
    if (View* hit = it->view->hitTest(local)) {
      hit->performClick();
      emit(EventType::kViewClicked, std::string{});
      emit(EventType::kTouchInteractionEnd, std::string{});
      return hit;
    }
  }
  // Top app window.
  View* consumed = nullptr;
  if (Window* top = topAppWindow()) {
    const Rect frame = appFrame(top->fullscreen());
    if (frame.contains(screen)) {
      const Point local{screen.x - frame.x, screen.y - frame.y};
      if (View* hit = top->content().hitTest(local)) {
        // The click handler may pop this very window (a dialog dismissing
        // itself), destroying `top` and its view tree — copy the package
        // name out before dispatching.
        const std::string package = top->packageName();
        hit->performClick();
        emit(EventType::kViewClicked, package);
        consumed = hit;
      }
    }
  }
  emit(EventType::kTouchInteractionEnd,
       topAppWindow() ? topAppWindow()->packageName() : std::string{});
  return consumed;
}

void WindowManager::emit(EventType type, const std::string& package) {
  if (sink_ == nullptr) return;
  AccessibilityEvent event;
  event.type = type;
  event.time = now();
  event.windowId = topAppWindow() ? topAppWindow()->id() : 0;
  event.packageName = package;
  sink_->onUiEvent(event);
}

}  // namespace darpa::android
