#include "gfx/canvas.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>

namespace darpa::gfx {

namespace {

/// Offset of `v` from the nearest point of [lo, hi], the span a rounded
/// rect's corner discs are centred on along one axis. Spelled min(max())
/// rather than std::clamp: the bounds cross (hi = lo - 1) when the radius
/// is half an even side, which std::clamp does not allow.
int cornerOffset(int v, int lo, int hi) {
  return v - std::min(std::max(v, lo), hi);
}

/// Whether (x, y) lies inside the rounded rect (r, radius).
bool insideRounded(const Rect& r, int radius, int x, int y) {
  if (!r.contains(Point{x, y})) return false;
  const int dx = cornerOffset(x, r.x + radius, r.right() - 1 - radius);
  const int dy = cornerOffset(y, r.y + radius, r.bottom() - 1 - radius);
  return dx * dx + dy * dy <= radius * radius;
}

}  // namespace

void Canvas::blendRun(int y, int x0, int x1, Color c) {
  x0 = std::max(x0, 0);
  x1 = std::min(x1, target_->width() - 1);
  if (x0 > x1 || c.a == 0) return;
  Color* const run = target_->row(y).data();
  if (c.a == 255) {
    fillPixels({run + x0, run + x1 + 1}, c);
    return;
  }
  // Over an opaque destination pixel (every pixel of a composited screen)
  // blend()'s output alpha is 255 and its divisor 255 * 255, which folds to
  // one division by 255: (s * a + d * (255 - a)) / 255.
  const int keep = 255 - c.a;
  const int r = c.r * c.a;
  const int g = c.g * c.a;
  const int b = c.b * c.a;
  for (int x = x0; x <= x1; ++x) {
    Color& d = run[x];
    if (d.a == 255) {
      d.r = static_cast<std::uint8_t>((r + d.r * keep) / 255);
      d.g = static_cast<std::uint8_t>((g + d.g * keep) / 255);
      d.b = static_cast<std::uint8_t>((b + d.b * keep) / 255);
    } else {
      d = blend(d, c);
    }
  }
}

void Canvas::fillRect(const Rect& r, Color c) {
  const Rect clipped = r.intersect(target_->bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    blendRun(y, clipped.left(), clipped.right() - 1, c);
  }
}

void Canvas::strokeRect(const Rect& r, Color c, int thickness) {
  thickness = std::clamp(thickness, 1, std::max(1, std::min(r.width, r.height) / 2));
  fillRect({r.x, r.y, r.width, thickness}, c);                              // top
  fillRect({r.x, r.bottom() - thickness, r.width, thickness}, c);           // bottom
  fillRect({r.x, r.y + thickness, thickness, r.height - 2 * thickness}, c); // left
  fillRect({r.right() - thickness, r.y + thickness, thickness,
            r.height - 2 * thickness},
           c);                                                              // right
}

void Canvas::fillRoundedRect(const Rect& r, Color c, int radius) {
  radius = std::min(std::max(radius, 0), std::min(r.width, r.height) / 2);
  if (radius == 0) {
    fillRect(r, c);
    return;
  }
  const Rect clipped = r.intersect(target_->bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    // A pixel is inside when it lies within `radius` of the nearest corner
    // disc centre. On one row that holds on a single run: walk in from each
    // end of the rect (at most `radius` steps) to its ends.
    const int dy = cornerOffset(y, r.y + radius, r.bottom() - 1 - radius);
    auto inside = [&](int x) {
      const int dx = cornerOffset(x, r.x + radius, r.right() - 1 - radius);
      return dx * dx + dy * dy <= radius * radius;
    };
    int x0 = r.left();
    while (x0 < r.right() && !inside(x0)) ++x0;
    int x1 = r.right() - 1;
    while (x1 > x0 && !inside(x1)) --x1;
    if (x0 < r.right()) blendRun(y, x0, x1, c);
  }
}

void Canvas::strokeRoundedRect(const Rect& r, Color c, int radius,
                               int thickness) {
  radius = std::min(std::max(radius, 0), std::min(r.width, r.height) / 2);
  thickness = std::max(thickness, 1);
  const Rect inner = r.inflated(-thickness);
  const int innerRadius = std::max(radius - thickness, 0);
  const Rect clipped = r.intersect(target_->bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    for (int x = clipped.left(); x < clipped.right(); ++x) {
      if (insideRounded(r, radius, x, y) &&
          !(inner.width > 0 && inner.height > 0 &&
            insideRounded(inner, innerRadius, x, y))) {
        target_->blendPixel(x, y, c);
      }
    }
  }
}

void Canvas::fillCircle(Point center, int radius, Color c) {
  const Rect box{center.x - radius, center.y - radius, 2 * radius + 1,
                 2 * radius + 1};
  const Rect clipped = box.intersect(target_->bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    // Walk in from the box's left edge to the row's first covered pixel;
    // the covered run is symmetric about the centre column.
    const int dy = y - center.y;
    int dx = -radius;
    while (dx < 0 && dx * dx + dy * dy > radius * radius) ++dx;
    blendRun(y, center.x + dx, center.x - dx, c);
  }
}

void Canvas::strokeCircle(Point center, int radius, Color c, int thickness) {
  const int inner = std::max(radius - thickness, 0);
  const Rect box{center.x - radius, center.y - radius, 2 * radius + 1,
                 2 * radius + 1};
  const Rect clipped = box.intersect(target_->bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    for (int x = clipped.left(); x < clipped.right(); ++x) {
      const int dx = x - center.x;
      const int dy = y - center.y;
      const int d2 = dx * dx + dy * dy;
      if (d2 <= radius * radius && d2 >= inner * inner) {
        target_->blendPixel(x, y, c);
      }
    }
  }
}

void Canvas::fillVerticalGradient(const Rect& r, Color top, Color bottom) {
  const Rect clipped = r.intersect(target_->bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    const double t =
        r.height <= 1 ? 0.0 : static_cast<double>(y - r.y) / (r.height - 1);
    blendRun(y, clipped.left(), clipped.right() - 1, lerp(top, bottom, t));
  }
}

void Canvas::drawLine(Point a, Point b, Color c) {
  int x0 = a.x, y0 = a.y;
  const int dx = std::abs(b.x - x0), sx = x0 < b.x ? 1 : -1;
  const int dy = -std::abs(b.y - y0), sy = y0 < b.y ? 1 : -1;
  int err = dx + dy;
  while (true) {
    target_->blendPixel(x0, y0, c);
    if (x0 == b.x && y0 == b.y) break;
    const int e2 = 2 * err;
    if (e2 >= dy) {
      err += dy;
      x0 += sx;
    }
    if (e2 <= dx) {
      err += dx;
      y0 += sy;
    }
  }
}

void Canvas::drawCross(const Rect& r, Color c, int thickness) {
  const int inset = std::max(std::min(r.width, r.height) / 5, 1);
  const Point tl{r.x + inset, r.y + inset};
  const Point br{r.right() - 1 - inset, r.bottom() - 1 - inset};
  const Point tr{r.right() - 1 - inset, r.y + inset};
  const Point bl{r.x + inset, r.bottom() - 1 - inset};
  for (int t = 0; t < thickness; ++t) {
    drawLine({tl.x + t, tl.y}, {br.x, br.y - t}, c);
    drawLine({tl.x, tl.y + t}, {br.x - t, br.y}, c);
    drawLine({tr.x - t, tr.y}, {bl.x, bl.y - t}, c);
    drawLine({tr.x, tr.y + t}, {bl.x + t, bl.y}, c);
  }
}

namespace {
// Deterministic 3x5 dot pattern per character. Mixing the char code through
// an integer hash yields a stable 15-bit mask; we force a minimum number of
// set dots so every glyph has visible ink.
std::uint16_t glyphMask(char ch) {
  std::uint32_t h = static_cast<std::uint32_t>(static_cast<unsigned char>(ch));
  h ^= h << 13;
  h *= 0x9e3779b1u;
  h ^= h >> 15;
  std::uint16_t mask = static_cast<std::uint16_t>(h & 0x7fff);
  if (std::popcount(static_cast<unsigned>(mask)) < 5) mask |= 0x2955;
  return mask;
}
}  // namespace

Rect Canvas::drawPseudoText(Point origin, std::string_view text, Color c,
                            int cell) {
  cell = std::max(cell, 1);
  int x = origin.x;
  for (char ch : text) {
    if (ch == ' ') {
      x += 3 * cell;
      continue;
    }
    // Each run of adjacent set dots in a glyph row is one rect, so every
    // covered pixel is still painted exactly once.
    const std::uint16_t mask = glyphMask(ch);
    for (int row = 0; row < 5; ++row) {
      for (int col = 0; col < 3;) {
        if (!(mask & (1u << (row * 3 + col)))) {
          ++col;
          continue;
        }
        const int first = col;
        while (col < 3 && (mask & (1u << (row * 3 + col)))) ++col;
        fillRect({x + first * cell, origin.y + row * cell, (col - first) * cell,
                  cell},
                 c);
      }
    }
    x += 4 * cell;
  }
  return {origin.x, origin.y, x - origin.x, 5 * cell};
}

int Canvas::pseudoTextWidth(std::string_view text, int cell) {
  cell = std::max(cell, 1);
  int w = 0;
  for (char ch : text) w += (ch == ' ' ? 3 : 4) * cell;
  return w;
}

void Canvas::drawBitmap(const Bitmap& src, Point origin,
                        std::uint8_t layerAlpha) {
  if (layerAlpha == 0) return;
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      Color c = src.at(x, y);
      if (layerAlpha != 255) {
        c.a = static_cast<std::uint8_t>(c.a * layerAlpha / 255);
      }
      if (c.a == 0) continue;
      target_->blendPixel(origin.x + x, origin.y + y, c);
    }
  }
}

}  // namespace darpa::gfx
