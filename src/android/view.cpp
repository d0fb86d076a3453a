#include "android/view.h"

#include <algorithm>
#include <new>

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#include "util/rng.h"
#include "util/thread_annotations.h"

namespace darpa::android {

namespace {

// The view block cache. Size class c holds blocks of (c + 1) * 8 bytes, so
// every View subclass (152 to 312 bytes) and every child vector of up to
// 64 children has a class. A block is a plain ::operator new block of
// exactly its class's size, so any thread may free it and a block leaving
// the cache goes to the sized ::operator delete with that size.
constexpr std::size_t kBlockGrain = 8;
constexpr std::size_t kSizeClasses = 64;

/// A request's size class; kSizeClasses or above when it has none (over
/// 512 bytes, or 0, which wraps).
constexpr std::size_t sizeClassOf(std::size_t bytes) {
  return (bytes - 1) / kBlockGrain;
}
constexpr std::size_t classBytes(std::size_t c) {
  return (c + 1) * kBlockGrain;
}

struct FreeBlock {
  FreeBlock* next;
};

// One thread's free lists. Constant-initialised and trivially
// destructible, so it stays readable for the whole life of its thread: a
// view freed after the thread-exit drain below finds kDrained and goes
// straight to ::operator delete.
struct BlockCache {
  enum class State : std::uint8_t { kUnused, kLive, kDrained };
  FreeBlock* heads[kSizeClasses] = {};
  int counts[kSizeClasses] = {};
  ViewBlockStats stats;
  State state = State::kUnused;
};

thread_local BlockCache t_cache CONFINED_TO("its thread");

// Hands every cached block back to ::operator delete when its thread exits.
struct CacheDrain {
  CacheDrain() = default;
  CacheDrain(const CacheDrain&) = delete;
  CacheDrain& operator=(const CacheDrain&) = delete;
  ~CacheDrain() {
    BlockCache& cache = t_cache;
    for (std::size_t c = 0; c < kSizeClasses; ++c) {
      while (FreeBlock* block = cache.heads[c]) {
        ASAN_UNPOISON_MEMORY_REGION(block, classBytes(c));
        cache.heads[c] = block->next;
        ::operator delete(block, classBytes(c));
        ++cache.stats.released;
      }
      cache.counts[c] = 0;
    }
    cache.state = BlockCache::State::kDrained;
  }
};

/// This thread's cache, or nullptr once its thread-exit drain has run. The
/// first call on a thread registers the drain.
BlockCache* threadCache() {
  BlockCache& cache = t_cache;
  if (cache.state == BlockCache::State::kUnused) {
    thread_local CacheDrain drain;
    cache.state = BlockCache::State::kLive;
  }
  return cache.state == BlockCache::State::kLive ? &cache : nullptr;
}

}  // namespace

const ViewBlockStats& viewBlockStats() { return t_cache.stats; }

namespace detail {

void* allocateViewBlock(std::size_t bytes) {
  const std::size_t c = sizeClassOf(bytes);
  BlockCache& cache = t_cache;
  if (c < kSizeClasses && cache.heads[c] != nullptr) {
    FreeBlock* block = cache.heads[c];
    ASAN_UNPOISON_MEMORY_REGION(block, classBytes(c));
    cache.heads[c] = block->next;
    --cache.counts[c];
    ++cache.stats.reused;
    return block;
  }
  ++cache.stats.fresh;
  return ::operator new(c < kSizeClasses ? classBytes(c) : bytes);
}

void releaseViewBlock(void* block, std::size_t bytes) noexcept {
  if (block == nullptr) return;
  const std::size_t c = sizeClassOf(bytes);
  BlockCache* cache = threadCache();
  if (cache != nullptr && c < kSizeClasses &&
      cache->counts[c] < kViewBlocksPerClass) {
    cache->heads[c] = ::new (block) FreeBlock{cache->heads[c]};
    ++cache->counts[c];
    ASAN_POISON_MEMORY_REGION(block, classBytes(c));
    return;
  }
  ++t_cache.stats.released;
  ::operator delete(block, c < kSizeClasses ? classBytes(c) : bytes);
}

}  // namespace detail

bool View::performClick() {
  if (!onClick_) return false;
  onClick_();
  return true;
}

View* View::addChild(std::unique_ptr<View> child) {
  child->parent_ = this;
  children_.push_back(std::move(child));
  touch();
  return children_.back().get();
}

View* View::findViewById(int id) {
  if (id_ == id) return this;
  for (const auto& child : children_) {
    if (View* found = child->findViewById(id)) return found;
  }
  return nullptr;
}

View* View::findViewByResourceId(std::string_view rid) {
  if (!resourceId_.empty() && resourceId_ == rid) return this;
  for (const auto& child : children_) {
    if (View* found = child->findViewByResourceId(rid)) return found;
  }
  return nullptr;
}

Point View::positionInRoot() const {
  Point p{frame_.x, frame_.y};
  for (const View* v = parent_; v != nullptr; v = v->parent_) {
    p.x += v->frame_.x;
    p.y += v->frame_.y;
  }
  return p;
}

View* View::hitTest(Point p) {
  if (!visible_) return nullptr;
  const Rect local{0, 0, frame_.width, frame_.height};
  if (!local.contains(p)) return nullptr;
  // Later children are on top: test in reverse order.
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
    View* child = it->get();
    const Point childLocal{p.x - child->frame_.x, p.y - child->frame_.y};
    if (View* hit = child->hitTest(childLocal)) return hit;
  }
  return clickable_ ? this : nullptr;
}

int View::subtreeSize() const {
  int n = 1;
  for (const auto& child : children_) n += child->subtreeSize();
  return n;
}

Color View::withEffAlpha(Color c, double effAlpha) {
  return c.withAlpha(static_cast<std::uint8_t>(
      std::clamp(c.a * effAlpha, 0.0, 255.0)));
}

void View::draw(gfx::Canvas& canvas, Point origin, double parentAlpha) const {
  if (!visible_) return;
  const double effAlpha = parentAlpha * alpha_;
  if (effAlpha <= 0.0) return;
  const Rect absRect{origin.x + frame_.x, origin.y + frame_.y, frame_.width,
                     frame_.height};
  if (background_.a > 0) {
    const Color bg = withEffAlpha(background_, effAlpha);
    if (cornerRadius_ > 0) {
      canvas.fillRoundedRect(absRect, bg, cornerRadius_);
    } else {
      canvas.fillRect(absRect, bg);
    }
  }
  paintContent(canvas, absRect, effAlpha);
  for (const auto& child : children_) {
    child->draw(canvas, {absRect.x, absRect.y}, effAlpha);
  }
}

void View::paintContent(gfx::Canvas&, const Rect&, double) const {}

void TextView::paintContent(gfx::Canvas& canvas, const Rect& absRect,
                            double effAlpha) const {
  if (text_.empty()) return;
  const int textW = gfx::Canvas::pseudoTextWidth(text_, textCell_);
  const int textH = gfx::Canvas::pseudoTextHeight(textCell_);
  const Point origin{absRect.x + std::max((absRect.width - textW) / 2, 1),
                     absRect.y + std::max((absRect.height - textH) / 2, 1)};
  canvas.drawPseudoText(origin, text_, withEffAlpha(textColor_, effAlpha),
                        textCell_);
}

void ImageView::paintContent(gfx::Canvas& canvas, const Rect& absRect,
                             double effAlpha) const {
  Rng rng(patternSeed_);
  // Gradient backdrop in a hue pair derived from the seed.
  const Color top = Color::rgb(static_cast<std::uint8_t>(rng.uniformInt(40, 220)),
                               static_cast<std::uint8_t>(rng.uniformInt(40, 220)),
                               static_cast<std::uint8_t>(rng.uniformInt(40, 220)));
  const Color bottom =
      Color::rgb(static_cast<std::uint8_t>(rng.uniformInt(40, 220)),
                 static_cast<std::uint8_t>(rng.uniformInt(40, 220)),
                 static_cast<std::uint8_t>(rng.uniformInt(40, 220)));
  canvas.fillVerticalGradient(absRect, withEffAlpha(top, effAlpha),
                              withEffAlpha(bottom, effAlpha));
  // Scatter a few shapes for ad-creative-like texture.
  const int shapes = rng.uniformInt(2, 6);
  for (int i = 0; i < shapes; ++i) {
    const Color c = withEffAlpha(
        Color::rgba(static_cast<std::uint8_t>(rng.uniformInt(0, 255)),
                    static_cast<std::uint8_t>(rng.uniformInt(0, 255)),
                    static_cast<std::uint8_t>(rng.uniformInt(0, 255)), 200),
        effAlpha);
    const int w = rng.uniformInt(absRect.width / 8 + 1, absRect.width / 3 + 2);
    const int h =
        rng.uniformInt(absRect.height / 8 + 1, absRect.height / 3 + 2);
    const int x = absRect.x + rng.uniformInt(0, std::max(absRect.width - w, 1));
    const int y =
        absRect.y + rng.uniformInt(0, std::max(absRect.height - h, 1));
    if (rng.chance(0.5)) {
      canvas.fillRoundedRect({x, y, w, h}, c, std::min(w, h) / 4);
    } else {
      canvas.fillCircle({x + w / 2, y + h / 2}, std::min(w, h) / 2, c);
    }
  }
}

void IconView::paintContent(gfx::Canvas& canvas, const Rect& absRect,
                            double effAlpha) const {
  const Color c = withEffAlpha(glyphColor_, effAlpha);
  const Point center = absRect.center();
  const int r = std::max(std::min(absRect.width, absRect.height) / 2 - 1, 1);
  switch (glyph_) {
    case IconGlyph::kCross:
      canvas.drawCross(absRect, c, thickness_);
      break;
    case IconGlyph::kCircle:
      canvas.fillCircle(center, r, c);
      break;
    case IconGlyph::kRing:
      canvas.strokeCircle(center, r, c, thickness_);
      break;
    case IconGlyph::kArrow: {
      canvas.drawLine({absRect.x + 2, center.y},
                      {absRect.right() - 3, center.y}, c);
      canvas.drawLine({absRect.right() - 3, center.y},
                      {center.x, absRect.y + 2}, c);
      canvas.drawLine({absRect.right() - 3, center.y},
                      {center.x, absRect.bottom() - 3}, c);
      break;
    }
    case IconGlyph::kChevron: {
      canvas.drawLine({absRect.x + 2, absRect.y + 2},
                      {absRect.right() - 3, center.y}, c);
      canvas.drawLine({absRect.right() - 3, center.y},
                      {absRect.x + 2, absRect.bottom() - 3}, c);
      break;
    }
    case IconGlyph::kStar: {
      canvas.fillCircle(center, r / 2, c);
      canvas.drawLine({center.x, absRect.y + 1},
                      {center.x, absRect.bottom() - 2}, c);
      canvas.drawLine({absRect.x + 1, center.y},
                      {absRect.right() - 2, center.y}, c);
      break;
    }
  }
}

}  // namespace darpa::android
