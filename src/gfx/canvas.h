// Canvas: drawing operations over a Bitmap.
//
// Implements exactly the vocabulary the simulated Android view system needs
// to paint realistic app screens — filled/stroked/rounded rectangles,
// circles, gradients, an "X" close glyph, and pseudo-text. Pseudo-text
// renders each character as a deterministic 3x5 dot-matrix pattern derived
// from the character code: it produces text-like high-frequency texture
// without a font engine, which is all the CV pipeline (and the paper's
// text-masking experiment, Fig. 7) needs.
#pragma once

#include <string_view>

#include "gfx/bitmap.h"

namespace darpa::gfx {

class Canvas {
 public:
  /// The canvas borrows the bitmap; the bitmap must outlive the canvas.
  explicit Canvas(Bitmap& target) : target_(&target) {}

  [[nodiscard]] Bitmap& bitmap() { return *target_; }
  [[nodiscard]] const Bitmap& bitmap() const { return *target_; }

  /// Fills a rect, alpha-blending if the color is translucent.
  void fillRect(const Rect& r, Color c);

  /// Strokes a rect border of the given thickness (drawn inside the rect).
  void strokeRect(const Rect& r, Color c, int thickness = 2);

  /// Filled rounded rect; radius clamped to half the shorter side.
  void fillRoundedRect(const Rect& r, Color c, int radius);

  /// Rounded-rect outline ring of the given thickness (inside the rect).
  void strokeRoundedRect(const Rect& r, Color c, int radius, int thickness = 2);

  /// Filled circle.
  void fillCircle(Point center, int radius, Color c);

  /// Ring (circle outline) of given thickness.
  void strokeCircle(Point center, int radius, Color c, int thickness = 2);

  /// Vertical linear gradient from `top` to `bottom` color.
  void fillVerticalGradient(const Rect& r, Color top, Color bottom);

  /// 1-px line (Bresenham), alpha-blended.
  void drawLine(Point a, Point b, Color c);

  /// An "X" glyph inside the rect — the canonical close-button mark.
  void drawCross(const Rect& r, Color c, int thickness = 2);

  /// Pseudo-text: dot-matrix glyphs at the given cell size. `cell` is the
  /// pixel size of one dot; a glyph is 3x5 dots plus 1 dot spacing. Returns
  /// the bounding rect actually painted.
  Rect drawPseudoText(Point origin, std::string_view text, Color c, int cell);

  /// Width in pixels that drawPseudoText would occupy for `text` at `cell`.
  [[nodiscard]] static int pseudoTextWidth(std::string_view text, int cell);
  [[nodiscard]] static int pseudoTextHeight(int cell) { return 5 * cell; }

  /// Composites another bitmap at `origin`, honoring per-pixel alpha and a
  /// whole-layer alpha multiplier (0..255).
  void drawBitmap(const Bitmap& src, Point origin, std::uint8_t layerAlpha = 255);

 private:
  /// blend(pixel, c) over row y's pixels x0..x1 (inclusive), clipped to
  /// the bitmap's columns; y must be a row of the bitmap. Every fill paints
  /// through this, one row run at a time.
  void blendRun(int y, int x0, int x1, Color c);

  Bitmap* target_;
};

}  // namespace darpa::gfx
