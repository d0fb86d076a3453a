// A simulated Android view system.
//
// Mirrors the subset of android.view.* that DARPA interacts with: a View
// tree with per-view bounds, background, alpha, visibility, clickability and
// resource ids; TextView/Button/ImageView/IconView concrete classes; and
// software drawing into a gfx::Canvas. Resource ids matter because the
// FraudDroid-like baseline (src/baselines) keys off them, and the app
// generator obfuscates them exactly the way real apps defeat string-based
// detection (§VI-C of the paper).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gfx/canvas.h"
#include "util/color.h"
#include "util/geometry.h"

namespace darpa::android {

/// Glyph shapes an IconView can render.
enum class IconGlyph { kCross, kCircle, kRing, kArrow, kChevron, kStar };

/// Most blocks one size class of the view block cache keeps per thread;
/// a free beyond it goes straight to ::operator delete.
inline constexpr int kViewBlocksPerClass = 128;

/// Per-thread counters of the view block cache, which serves every view
/// object and every view's child vector (see View::operator new). `reused`
/// blocks came off this thread's free lists and `fresh` ones from
/// ::operator new; `released` blocks went back to ::operator delete: the
/// surplus over kViewBlocksPerClass, blocks over the largest size class,
/// and the whole cache when the thread exits.
struct ViewBlockStats {
  std::int64_t reused = 0;
  std::int64_t fresh = 0;
  std::int64_t released = 0;
};

/// This thread's counters (thread_local; see ViewBlockStats).
[[nodiscard]] const ViewBlockStats& viewBlockStats();

namespace detail {

/// A block of at least `bytes` from this thread's view block cache.
[[nodiscard]] void* allocateViewBlock(std::size_t bytes);
/// Returns a block to this thread's cache; `bytes` is the size it was
/// allocated with. Any thread may release any block.
void releaseViewBlock(void* block, std::size_t bytes) noexcept;

/// Stateless allocator over the view block cache, for View's child vector.
template <class T>
struct ViewBlockAllocator {
  using value_type = T;
  ViewBlockAllocator() = default;
  template <class U>
  ViewBlockAllocator(const ViewBlockAllocator<U>& /*other*/) noexcept {}
  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(allocateViewBlock(n * sizeof(T)));
  }
  void deallocate(T* block, std::size_t n) noexcept {
    releaseViewBlock(block, n * sizeof(T));
  }
  friend bool operator==(const ViewBlockAllocator&,
                         const ViewBlockAllocator&) {
    return true;
  }
};

}  // namespace detail

class View {
 public:
  /// Which subclass fields the UI walk reads besides the View's own: a
  /// TextView's text and text colour, an IconView's glyph colour, a
  /// WebView's page. The constructors of those three classes set it; every
  /// other view is kPlain. The walk switches on it instead of probing the
  /// dynamic type.
  enum class Kind : std::uint8_t { kPlain, kText, kIcon, kWeb };

  View() = default;
  virtual ~View() = default;
  View(const View&) = delete;
  View& operator=(const View&) = delete;

  /// Every view, of any subclass, takes its storage from the calling
  /// thread's view block cache: one LIFO free list per 8-byte size class,
  /// so a screen's teardown hands its blocks to the next screen built on
  /// that thread. The virtual destructor passes the dynamic class's size.
  [[nodiscard]] static void* operator new(std::size_t bytes) {
    return detail::allocateViewBlock(bytes);
  }
  static void operator delete(void* block, std::size_t bytes) noexcept {
    detail::releaseViewBlock(block, bytes);
  }

  // --- identity -----------------------------------------------------------
  /// SDK-style class name, used by the UI-hierarchy dump (ADB-like metadata
  /// consumed by the FraudDroid baseline). Constant per class: the version
  /// below cannot see a name that changes.
  [[nodiscard]] virtual std::string_view className() const { return "View"; }
  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] int id() const { return id_; }
  void setId(int id) {
    id_ = id;
    touch();
  }
  /// Android-style resource entry name, e.g. "btn_close". Empty when the app
  /// obfuscated or dynamically generated it.
  [[nodiscard]] const std::string& resourceId() const { return resourceId_; }
  void setResourceId(std::string rid) {
    resourceId_ = std::move(rid);
    touch();
  }

  /// Moves on every mutation of this view or of any view below it: every
  /// mutator, a subclass's included, calls touch(). Equal versions of one
  /// root mean an unchanged tree unless exactly a multiple of 2^32
  /// mutations came between the two reads.
  [[nodiscard]] std::uint32_t version() const { return version_; }

  // --- geometry -----------------------------------------------------------
  /// Frame relative to the parent view (or the window for the root).
  [[nodiscard]] const Rect& frame() const { return frame_; }
  void setFrame(const Rect& f) {
    frame_ = f;
    touch();
  }

  // --- appearance ---------------------------------------------------------
  [[nodiscard]] Color background() const { return background_; }
  void setBackground(Color c) {
    background_ = c;
    touch();
  }
  [[nodiscard]] int cornerRadius() const { return cornerRadius_; }
  void setCornerRadius(int r) {
    cornerRadius_ = r;
    touch();
  }
  /// View alpha in [0, 1]; multiplies into children (Android semantics).
  [[nodiscard]] double alpha() const { return alpha_; }
  void setAlpha(double a) {
    alpha_ = a < 0 ? 0 : (a > 1 ? 1 : a);
    touch();
  }
  [[nodiscard]] bool visible() const { return visible_; }
  void setVisible(bool v) {
    visible_ = v;
    touch();
  }

  // --- interaction --------------------------------------------------------
  [[nodiscard]] bool clickable() const { return clickable_; }
  void setClickable(bool c) {
    clickable_ = c;
    touch();
  }
  void setOnClick(std::function<void()> handler) {
    onClick_ = std::move(handler);
    clickable_ = true;
    touch();
  }
  /// Invokes the click handler if any; returns whether one ran.
  bool performClick();

  // --- tree ---------------------------------------------------------------
  /// Appends a child and returns a non-owning pointer to it.
  View* addChild(std::unique_ptr<View> child);
  [[nodiscard]] std::span<const std::unique_ptr<View>> children() const {
    return children_;
  }
  [[nodiscard]] View* parent() const { return parent_; }
  void removeAllChildren() {
    children_.clear();
    touch();
  }

  /// Depth-first search by view id; nullptr when absent.
  [[nodiscard]] View* findViewById(int id);
  /// Depth-first search by resource id; nullptr when absent.
  [[nodiscard]] View* findViewByResourceId(std::string_view rid);

  /// Frame origin relative to the root of this view tree.
  [[nodiscard]] Point positionInRoot() const;

  /// Deepest visible clickable descendant containing `p` (coordinates
  /// relative to this view's frame origin); nullptr when none. Later
  /// siblings are on top (Android child z-order). Virtual so views hosting
  /// non-View content (WebView's virtual accessibility tree) can consume
  /// hits on that content's behalf.
  [[nodiscard]] virtual View* hitTest(Point p);

  /// Number of views in this subtree, including this one.
  [[nodiscard]] int subtreeSize() const;

  /// Paints this view and its children. `origin` is the absolute position of
  /// this view's frame; `parentAlpha` in [0,1] multiplies this view's alpha.
  void draw(gfx::Canvas& canvas, Point origin, double parentAlpha = 1.0) const;

 protected:
  /// Records a mutation: bumps the version of this view and of each
  /// ancestor.
  void touch() {
    for (View* v = this; v != nullptr; v = v->parent_) ++v->version_;
  }

  /// Subclass content painting, after background and before children.
  /// `absRect` is the view's absolute rect; `effAlpha` the effective alpha.
  virtual void paintContent(gfx::Canvas& canvas, const Rect& absRect,
                            double effAlpha) const;

  /// Applies effective alpha to a color.
  [[nodiscard]] static Color withEffAlpha(Color c, double effAlpha);

 private:
  // Only the classes whose fields the walk reads may set a kind, so the
  // walk's static_cast on it always names the view's real class.
  friend class TextView;
  friend class IconView;
  friend class WebView;
  explicit View(Kind kind) : kind_(kind) {}

  // version_ and kind_ fill padding holes after id_ and after the bools:
  // sizeof(View) is the same as without them.
  int id_ = 0;
  std::uint32_t version_ = 0;
  std::string resourceId_;
  Rect frame_;
  Color background_ = colors::kTransparent;
  int cornerRadius_ = 0;
  double alpha_ = 1.0;
  bool visible_ = true;
  bool clickable_ = false;
  Kind kind_ = Kind::kPlain;
  std::function<void()> onClick_;
  View* parent_ = nullptr;
  std::vector<std::unique_ptr<View>,
              detail::ViewBlockAllocator<std::unique_ptr<View>>>
      children_;
};

/// A view that renders pseudo-text (see gfx::Canvas::drawPseudoText).
class TextView : public View {
 public:
  TextView() : View(Kind::kText) {}
  [[nodiscard]] std::string_view className() const override {
    return "TextView";
  }
  [[nodiscard]] const std::string& text() const { return text_; }
  void setText(std::string t) {
    text_ = std::move(t);
    touch();
  }
  [[nodiscard]] Color textColor() const { return textColor_; }
  void setTextColor(Color c) {
    textColor_ = c;
    touch();
  }
  /// Dot cell size in pixels; glyphs are 3x5 cells.
  void setTextCell(int cell) {
    textCell_ = cell > 0 ? cell : 1;
    touch();
  }

 protected:
  void paintContent(gfx::Canvas& canvas, const Rect& absRect,
                    double effAlpha) const override;

 private:
  std::string text_;
  Color textColor_ = colors::kBlack;
  int textCell_ = 2;
};

/// A TextView with button chrome (rounded filled background by default).
class Button : public TextView {
 public:
  [[nodiscard]] std::string_view className() const override { return "Button"; }
  Button() {
    setClickable(true);
    setCornerRadius(6);
  }
};

/// A view that renders procedural "imagery" (gradient + shapes), standing in
/// for ad creatives and promo art. The pattern is derived from a seed so two
/// ImageViews with the same seed render identically.
class ImageView : public View {
 public:
  [[nodiscard]] std::string_view className() const override {
    return "ImageView";
  }
  [[nodiscard]] std::uint64_t patternSeed() const { return patternSeed_; }
  void setPatternSeed(std::uint64_t seed) {
    patternSeed_ = seed;
    touch();
  }

 protected:
  void paintContent(gfx::Canvas& canvas, const Rect& absRect,
                    double effAlpha) const override;

 private:
  std::uint64_t patternSeed_ = 0;
};

/// A small glyph view (close crosses, chevrons, stars...).
class IconView : public View {
 public:
  IconView() : View(Kind::kIcon) {}
  [[nodiscard]] std::string_view className() const override {
    return "IconView";
  }
  [[nodiscard]] IconGlyph glyph() const { return glyph_; }
  void setGlyph(IconGlyph g) {
    glyph_ = g;
    touch();
  }
  [[nodiscard]] Color glyphColor() const { return glyphColor_; }
  void setGlyphColor(Color c) {
    glyphColor_ = c;
    touch();
  }
  [[nodiscard]] int thickness() const { return thickness_; }
  void setThickness(int t) {
    thickness_ = t > 0 ? t : 1;
    touch();
  }

 protected:
  void paintContent(gfx::Canvas& canvas, const Rect& absRect,
                    double effAlpha) const override;

 private:
  IconGlyph glyph_ = IconGlyph::kCross;
  Color glyphColor_ = colors::kBlack;
  int thickness_ = 2;
};

}  // namespace darpa::android
