// Geometry primitives shared across the whole system.
//
// Pixel-space types are integer-based (Android view coordinates are integer
// pixels); detection-space boxes are float-based because the detectors emit
// sub-pixel regressed coordinates. Both are small value types with no
// invariants beyond "width/height may be zero or positive" (an empty rect).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>

namespace darpa {

/// A 2-D integer point (pixel coordinates, origin at top-left).
struct Point {
  int x = 0;
  int y = 0;

  friend bool operator==(const Point&, const Point&) = default;
};

/// A 2-D integer size.
struct Size {
  int width = 0;
  int height = 0;

  [[nodiscard]] constexpr std::int64_t area() const {
    return static_cast<std::int64_t>(width) * height;
  }
  [[nodiscard]] constexpr bool empty() const { return width <= 0 || height <= 0; }

  friend bool operator==(const Size&, const Size&) = default;
};

/// Axis-aligned integer rectangle: [x, x+width) x [y, y+height).
struct Rect {
  int x = 0;
  int y = 0;
  int width = 0;
  int height = 0;

  [[nodiscard]] constexpr int left() const { return x; }
  [[nodiscard]] constexpr int top() const { return y; }
  [[nodiscard]] constexpr int right() const { return x + width; }
  [[nodiscard]] constexpr int bottom() const { return y + height; }
  [[nodiscard]] constexpr std::int64_t area() const {
    return static_cast<std::int64_t>(width) * height;
  }
  [[nodiscard]] constexpr bool empty() const { return width <= 0 || height <= 0; }
  [[nodiscard]] constexpr Point center() const {
    return {x + width / 2, y + height / 2};
  }
  [[nodiscard]] constexpr bool contains(Point p) const {
    return p.x >= x && p.x < right() && p.y >= y && p.y < bottom();
  }
  [[nodiscard]] constexpr bool contains(const Rect& r) const {
    return !r.empty() && r.x >= x && r.y >= y && r.right() <= right() &&
           r.bottom() <= bottom();
  }

  /// Rect translated by (dx, dy).
  [[nodiscard]] constexpr Rect translated(int dx, int dy) const {
    return {x + dx, y + dy, width, height};
  }

  /// Rect grown by `margin` on every side (negative margin shrinks).
  [[nodiscard]] constexpr Rect inflated(int margin) const {
    return {x - margin, y - margin, width + 2 * margin, height + 2 * margin};
  }

  /// Intersection; empty rect (w=h=0 at the clamped origin) when disjoint.
  [[nodiscard]] Rect intersect(const Rect& o) const;

  /// Smallest rect containing both. An empty operand is ignored.
  [[nodiscard]] Rect unite(const Rect& o) const;

  friend bool operator==(const Rect&, const Rect&) = default;
};

std::ostream& operator<<(std::ostream& os, const Rect& r);

/// Axis-aligned float rectangle used by detectors (sub-pixel box regression).
struct RectF {
  float x = 0.f;
  float y = 0.f;
  float width = 0.f;
  float height = 0.f;

  [[nodiscard]] constexpr float left() const { return x; }
  [[nodiscard]] constexpr float top() const { return y; }
  [[nodiscard]] constexpr float right() const { return x + width; }
  [[nodiscard]] constexpr float bottom() const { return y + height; }
  [[nodiscard]] constexpr float area() const { return width * height; }
  [[nodiscard]] constexpr bool empty() const {
    return width <= 0.f || height <= 0.f;
  }

  [[nodiscard]] static RectF fromRect(const Rect& r) {
    return {static_cast<float>(r.x), static_cast<float>(r.y),
            static_cast<float>(r.width), static_cast<float>(r.height)};
  }
  /// Rounds to the nearest integer pixel rect.
  [[nodiscard]] Rect toRect() const;

  friend bool operator==(const RectF&, const RectF&) = default;
};

std::ostream& operator<<(std::ostream& os, const RectF& r);

/// Intersection-over-Union of two integer rects, in [0, 1].
[[nodiscard]] double iou(const Rect& a, const Rect& b);

/// Intersection-over-Union of two float rects, in [0, 1].
[[nodiscard]] double iou(const RectF& a, const RectF& b);

/// Euclidean distance between two points.
[[nodiscard]] double distance(Point a, Point b);

}  // namespace darpa
