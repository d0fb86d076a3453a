#include "android/window_manager.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

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

/// The virtual nodes of a WebView's page in pre-order, as NodeFields. A
/// page's virtual tree goes inline directly below its host: depth continues
/// from `depth` (the page root's), bounds are carried into screen space
/// through the host's position `origin`, the host's effective alpha
/// multiplies into every node's opacity chain, and resourceId stays empty —
/// virtual nodes only ever have a page-global virtualId. forEachVirtual
/// walks the page iteratively.
///
/// The nodes borrow the page's strings and live in a buffer of this thread
/// that the next call overwrites. Collecting them out of line keeps the
/// walk's sink out of forEachVirtual's std::function: a copy of a hashing
/// sink stored for it lets GCC turn the sink's four lanes into one vector
/// of 64-bit multiplies for every node of the walk, which is slower. The
/// callback captures one pointer, so the std::function holds it without
/// allocating.
[[gnu::noinline]] std::span<const NodeFields> pageFields(const WebView& web,
                                                         Point origin,
                                                         int depth,
                                                         double alpha) {
  thread_local std::vector<NodeFields> fields;
  fields.clear();
  struct Host {
    std::vector<NodeFields>* fields;
    Point origin;
    int depth;
    double alpha;
  } host{&fields, origin, depth, alpha};
  web.forEachVirtual([&host](const VirtualNode& vn, int virtualDepth,
                             double effOpacity) {
    NodeFields& v = host.fields->emplace_back();
    v.className = virtualRoleClassName(vn.role);
    v.text = vn.text;
    v.bounds = vn.bounds.translated(host.origin.x, host.origin.y);
    v.clickable = vn.clickable;
    v.depth = host.depth + virtualDepth;
    v.background = vn.background;
    if (!vn.text.empty() || vn.crossGlyph) {
      v.contentColor = vn.contentColor;
      v.hasContentColor = true;
    }
    v.effAlpha = host.alpha * effOpacity;
    v.isVirtual = true;
    v.virtualId = vn.virtualId;
  });
  return fields;
}

/// One level of the walk's explicit stack: the children of a visited view
/// that are still to come, and what they inherit from it.
struct WalkLevel {
  const std::unique_ptr<View>* next;
  const std::unique_ptr<View>* end;
  Point origin;  ///< The parent's screen position.
  int depth;     ///< The children's depth.
  double alpha;  ///< The parent's effective alpha.
};

/// Storage for the walk's stack, reused by every walk on this thread: it
/// grows with the tree, so there is no depth limit, and a warm walk
/// allocates nothing.
thread_local std::vector<WalkLevel> t_walkLevels CONFINED_TO("its thread");

/// Pre-order walk of the top app window, if there is one, in dump order:
/// a view, then the virtual nodes of a WebView with a page (pageFields),
/// then its children, left to right. An invisible view prunes its subtree.
/// The walk is one loop over an explicit stack, so a deep view tree cannot
/// overflow the walking service's stack. Always inlined, so that a hashing
/// sink's state stays in registers across the loop.
template <typename Sink>
[[gnu::always_inline]] inline void walkTopWindow(const WindowManager& wm,
                                                 Sink& sink) {
  const Window* top = wm.topAppWindow();
  if (top == nullptr) return;
  const Rect frame = wm.appFrame(top->fullscreen());
  // The storage's size is the stack's capacity and `height` the levels in
  // use, so the stack touches its storage only to grow.
  std::vector<WalkLevel>& storage = t_walkLevels;
  WalkLevel* levels = storage.data();
  std::size_t height = 0;
  const View* view = &top->content();
  Point origin{frame.x, frame.y};
  int depth = 0;
  double parentAlpha = 1.0;
  for (;;) {
    if (view->visible()) {
      NodeFields node;
      node.className = view->className();
      node.resourceId = view->resourceId();
      node.bounds = {origin.x + view->frame().x, origin.y + view->frame().y,
                     view->frame().width, view->frame().height};
      node.clickable = view->clickable();
      node.depth = depth;
      node.background = view->background();
      node.effAlpha = parentAlpha * view->alpha();
      // Only TextView, IconView and WebView construct these kinds, so each
      // cast names the view's real class (or a class derived from it).
      const WebView* web = nullptr;
      switch (view->kind()) {
        case View::Kind::kText: {
          const auto& text = static_cast<const TextView&>(*view);
          node.text = text.text();
          node.contentColor = text.textColor();
          node.hasContentColor = true;
          break;
        }
        case View::Kind::kIcon:
          node.contentColor = static_cast<const IconView&>(*view).glyphColor();
          node.hasContentColor = true;
          break;
        case View::Kind::kWeb:
          web = static_cast<const WebView*>(view);
          break;
        case View::Kind::kPlain:
          break;
      }
      sink(node);
      if (web != nullptr && web->hasPage()) {
        for (const NodeFields& v :
             pageFields(*web, {node.bounds.x, node.bounds.y}, depth + 1,
                        node.effAlpha)) {
          sink(v);
        }
      }
      const auto children = view->children();
      if (!children.empty()) {
        if (height == storage.size()) {
          storage.resize(std::max<std::size_t>(16, 2 * height));
          levels = storage.data();
        }
        levels[height++] = {children.data(),
                            children.data() + children.size(),
                            {node.bounds.x, node.bounds.y}, depth + 1,
                            node.effAlpha};
      }
    }
    // A level leaves the stack when its last child is taken, so the top
    // level always has a child left.
    if (height == 0) return;
    WalkLevel& level = levels[height - 1];
    view = (level.next++)->get();
    origin = level.origin;
    depth = level.depth;
    parentAlpha = level.alpha;
    if (level.next == level.end) --height;
  }
}

/// One mixing step: h takes one 64-bit word per multiply. For a fixed w
/// the step is a bijection of h, so two equal-length word streams that
/// differ in one word cannot collide.
constexpr std::uint64_t mix(std::uint64_t h, std::uint64_t w) {
  return (std::rotl(h, 5) ^ w) * 0x9E3779B97F4A7C15ULL;
}

/// The little-endian word at p, read with one unaligned load.
template <typename Word>
Word load(const char* p) {
  Word w = 0;
  std::memcpy(&w, p, sizeof w);
  return w;
}

/// Mixes a string into one lane a word at a time, reading nothing outside
/// it: each whole 8-byte word but the last, then one tail word from loads
/// that may overlap the bytes before them (the last 8 bytes when n >= 8,
/// two 4-byte loads when 4 <= n < 8, three single bytes when n < 4), then
/// the length. For a fixed length the words are a one-to-one image of the
/// bytes, and the length word keeps ("ab","c") and ("a","bc") apart.
[[gnu::always_inline]] inline std::uint64_t mixString(std::uint64_t h,
                                                     std::string_view s) {
  const char* p = s.data();
  const std::size_t n = s.size();
  if (n >= 8) {
    const char* last = p + n - 8;
    for (; p < last; p += 8) h = mix(h, load<std::uint64_t>(p));
    h = mix(h, load<std::uint64_t>(last));
  } else if (n >= 4) {
    h = mix(h, std::uint64_t{load<std::uint32_t>(p)} << 32 |
                   load<std::uint32_t>(p + n - 4));
  } else if (n > 0) {
    const auto byte = [p](std::size_t i) {
      return std::uint64_t{static_cast<unsigned char>(p[i])};
    };
    h = mix(h, byte(0) << 16 | byte(n / 2) << 8 | byte(n - 1));
  }
  return mix(h, n);
}

/// An int field as one word.
constexpr std::uint64_t word(std::int64_t v) {
  return static_cast<std::uint64_t>(v);
}

/// Two 32-bit int fields as one word.
constexpr std::uint64_t pair(int low, int high) {
  return std::uint64_t{static_cast<std::uint32_t>(low)} |
         std::uint64_t{static_cast<std::uint32_t>(high)} << 32;
}

/// A colour's four bytes as one word, in their in-memory order: one load,
/// where toArgb() assembles four bytes. Fingerprints are in-process keys,
/// so the order only has to be fixed.
inline std::uint64_t colorWord(Color c) {
  return std::bit_cast<std::uint32_t>(c);
}

/// The fingerprint sink. Each node's words go into four independent mix
/// chains ("lanes"), so the multiplies of one node overlap instead of
/// waiting on each other: class name, then x and y | resource id, then
/// width and height, and a virtual node's page-global id | text, then the
/// content colour, and a virtual node's marker | depth and clickable, then
/// background, then alpha. Two 32-bit fields share one word. Each lane is a
/// bijection in each of its words, and finish() folds the lanes in a fixed
/// order, then mixes in the node count and applies a splitmix64 finalizer,
/// which spreads nearby inputs (bounds off by one pixel) across the whole
/// word. Inlined into the walk's loop, so the lanes stay in registers.
class Fingerprinter {
 public:
  [[gnu::always_inline]] void operator()(const NodeFields& node) {
    // Never hash DARPA's own decoration views: the fingerprint must be
    // identical before and after the service decorates a screen, or every
    // decorated screen would invalidate its own cache entry.
    if (node.className == "DarpaDecorationView") return;
    ++nodes_;
    a_ = mix(mixString(a_, node.className),
             pair(node.bounds.x, node.bounds.y));
    b_ = mix(mixString(b_, node.resourceId),
             pair(node.bounds.width, node.bounds.height));
    c_ = mix(mixString(c_, node.text), node.hasContentColor
                                           ? colorWord(node.contentColor)
                                           : word(-1));
    // Alpha is a double; quantize to 1/1024 so float noise cannot split
    // visually identical screens into distinct fingerprints.
    d_ = mix(mix(mix(d_, pair(node.depth, node.clickable ? 1 : 0)),
                 colorWord(node.background)),
             word(static_cast<std::int64_t>(node.effAlpha * 1024.0)));
    // Virtual (WebView) nodes have no resource id to mix, so their
    // page-global id enters the stream instead, plus a marker that keeps a
    // virtual node from colliding with a native one that happens to share
    // class/bounds/text. Only virtual nodes carry these two fields.
    if (node.isVirtual) {
      b_ = mixString(b_, node.virtualId);
      c_ = mix(c_, word(1));
    }
  }

  [[nodiscard]] std::uint64_t finish() const {
    std::uint64_t h = mix(mix(mix(mix(a_, b_), c_), d_), word(nodes_));
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
  }

 private:
  std::uint64_t a_ = 0x6A09E667F3BCC909ULL;
  std::uint64_t b_ = 0xBB67AE8584CAA73BULL;
  std::uint64_t c_ = 0x3C6EF372FE94F82BULL;
  std::uint64_t d_ = 0xA54FF53A5F1D36F1ULL;
  std::int64_t nodes_ = 0;
};

/// topWindowFingerprint()'s walk, out of line so that a memo hit does not
/// pay for it. With DARPA_BOUNDS_CHECKS every walk is checked against the
/// UiNode path: fingerprint(dumpTopWindow()) must give the same value.
[[gnu::noinline]] std::uint64_t walkFingerprint(const WindowManager& wm) {
  Fingerprinter hash;
  walkTopWindow(wm, hash);
  const std::uint64_t live = hash.finish();
#if DARPA_BOUNDS_CHECKS
  const std::uint64_t fromDump = WindowManager::fingerprint(wm.dumpTopWindow());
  if (live != fromDump) {
    const Window* top = wm.topAppWindow();
    std::fprintf(stderr,
                 "fingerprint walk disagrees with its dump: window %d, live "
                 "%016llx, dump %016llx\n",
                 top != nullptr ? top->id() : 0,
                 static_cast<unsigned long long>(live),
                 static_cast<unsigned long long>(fromDump));
    std::abort();
  }
#endif
  return live;
}

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
  const Window* top = topAppWindow();
  if (top == nullptr) return walkFingerprint(*this);
  Window::FingerprintMemo& memo = top->memo_;
  const std::uint32_t version = top->content().version();
  if (memo.valid && memo.version == version) {
#if DARPA_BOUNDS_CHECKS
    if (walkFingerprint(*this) != memo.fingerprint) {
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
  memo = {true, version, walkFingerprint(*this)};
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
