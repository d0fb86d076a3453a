// Unit tests for src/gfx: Bitmap operations and Canvas drawing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string_view>
#include <utility>

#include "android/window_manager.h"
#include "apps/screen_generator.h"
#include "core/decoration.h"
#include "downscale_reference.h"
#include "gfx/bitmap.h"
#include "gfx/canvas.h"
#include "util/rng.h"

namespace darpa::gfx {
namespace {

TEST(BitmapTest, ConstructionAndFill) {
  Bitmap bmp(4, 3, colors::kRed);
  EXPECT_EQ(bmp.width(), 4);
  EXPECT_EQ(bmp.height(), 3);
  EXPECT_EQ(bmp.pixelCount(), 12u);
  EXPECT_EQ(bmp.at(0, 0), colors::kRed);
  EXPECT_EQ(bmp.at(3, 2), colors::kRed);
  bmp.fill(colors::kBlue);
  EXPECT_EQ(bmp.at(2, 1), colors::kBlue);
}

TEST(BitmapTest, ConstructAndFillEveryTailWidth) {
  // Pixel fills store eight pixels at a time and finish the row's tail one
  // pixel at a time: sweep every tail length, from a bitmap narrower than
  // one store to five stores wide, against a per-pixel set() reference.
  auto reference = [](int w, int h, Color c) {
    Bitmap ref(w, h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) ref.set(x, y, c);
    }
    return ref;
  };
  const Color translucent = Color::rgba(10, 200, 30, 77);
  for (const Color initial : {Color{}, colors::kWhite, translucent}) {
    const Color refill = initial == colors::kWhite ? translucent : colors::kWhite;
    for (int h = 1; h <= 3; ++h) {
      for (int w = 1; w <= 40; ++w) {
        Bitmap bmp(w, h, initial);
        ASSERT_EQ(bmp, reference(w, h, initial))
            << w << "x" << h << " constructed with " << initial;
        bmp.fill(refill);
        ASSERT_EQ(bmp, reference(w, h, refill))
            << w << "x" << h << " filled with " << refill;
      }
    }
  }
}

TEST(BitmapTest, EmptyBitmap) {
  Bitmap bmp;
  EXPECT_TRUE(bmp.empty());
  EXPECT_EQ(bmp.pixelCount(), 0u);
  Bitmap negative(-5, 10);
  EXPECT_TRUE(negative.empty());
}

TEST(BitmapTest, CloneIsADeepCopy) {
  Bitmap bmp(3, 3, colors::kRed);
  Bitmap copy = bmp.clone();
  EXPECT_EQ(copy, bmp);
  copy.set(1, 1, colors::kBlue);
  EXPECT_EQ(bmp.at(1, 1), colors::kRed);  // the original is untouched
  EXPECT_NE(copy, bmp);
}

TEST(BitmapTest, MovedFromIsEmpty) {
  Bitmap bmp(4, 4, colors::kGreen);
  const Bitmap moved = std::move(bmp);
  EXPECT_TRUE(bmp.empty());  // NOLINT(bugprone-use-after-move): the contract
  EXPECT_EQ(bmp.pixelCount(), 0u);
  EXPECT_EQ(moved.at(3, 3), colors::kGreen);
}

TEST(BitmapTest, EqualityComparesContentsNotIdentity) {
  Bitmap a(2, 2, colors::kRed);
  Bitmap b(2, 2, colors::kRed);
  EXPECT_EQ(a, b);  // distinct buffers, same pixels
  b.set(0, 0, colors::kBlue);
  EXPECT_NE(a, b);
  EXPECT_NE(a, Bitmap(2, 3, colors::kRed));  // same area, different shape
}

#if DARPA_BOUNDS_CHECKS
TEST(BitmapDeathTest, AtOutOfBoundsAborts) {
  Bitmap bmp(2, 2, colors::kWhite);
  EXPECT_DEATH((void)bmp.at(2, 0), "bounds");
  EXPECT_DEATH((void)bmp.at(0, -1), "bounds");
}

TEST(BitmapDeathTest, SetOutOfBoundsAborts) {
  Bitmap bmp(2, 2, colors::kWhite);
  EXPECT_DEATH(bmp.set(-1, 0, colors::kRed), "bounds");
  EXPECT_DEATH(bmp.set(0, 2, colors::kRed), "bounds");
}
#endif  // DARPA_BOUNDS_CHECKS

TEST(BitmapTest, AtClampedOutOfBounds) {
  Bitmap bmp(2, 2, colors::kWhite);
  EXPECT_EQ(bmp.atClamped(-1, 0), colors::kTransparent);
  EXPECT_EQ(bmp.atClamped(0, 5), colors::kTransparent);
  EXPECT_EQ(bmp.atClamped(1, 1), colors::kWhite);
}

TEST(BitmapTest, FillRectClipsToBounds) {
  Bitmap bmp(10, 10, colors::kWhite);
  bmp.fillRect({8, 8, 10, 10}, colors::kBlack);
  EXPECT_EQ(bmp.at(9, 9), colors::kBlack);
  EXPECT_EQ(bmp.at(7, 7), colors::kWhite);
}

TEST(BitmapTest, CropCopiesRegion) {
  Bitmap bmp(10, 10, colors::kWhite);
  bmp.fillRect({2, 2, 3, 3}, colors::kGreen);
  const Bitmap cropped = bmp.crop({2, 2, 3, 3});
  EXPECT_EQ(cropped.width(), 3);
  EXPECT_EQ(cropped.height(), 3);
  EXPECT_EQ(cropped.at(0, 0), colors::kGreen);
  EXPECT_EQ(cropped.at(2, 2), colors::kGreen);
}

TEST(BitmapTest, CropClipsOutOfBounds) {
  Bitmap bmp(10, 10);
  const Bitmap cropped = bmp.crop({8, 8, 10, 10});
  EXPECT_EQ(cropped.width(), 2);
  EXPECT_EQ(cropped.height(), 2);
}

TEST(BitmapTest, DownscaleAveragesRegions) {
  Bitmap bmp(4, 4, colors::kWhite);
  bmp.fillRect({0, 0, 2, 4}, colors::kBlack);  // left half black
  const Bitmap small = referenceDownscale(bmp, 2, 1);
  EXPECT_EQ(small.at(0, 0), colors::kBlack);
  EXPECT_EQ(small.at(1, 0), colors::kWhite);
}

TEST(BitmapTest, DownscalePreservesMeanLuma) {
  Bitmap bmp(64, 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      bmp.set(x, y, Color::rgb(static_cast<std::uint8_t>((x * 4) & 0xff),
                               static_cast<std::uint8_t>((y * 4) & 0xff), 128));
    }
  }
  const Bitmap small = referenceDownscale(bmp, 16, 16);
  EXPECT_NEAR(small.meanLuma(small.bounds()), bmp.meanLuma(bmp.bounds()), 2.0);
}

TEST(BitmapTest, DownscaleTwoXFastPathMatchesBlockAverage) {
  // The exact-2x decimation shortcut must reproduce the general path's
  // truncating per-block average on every channel, alpha included.
  Bitmap bmp(26, 14);
  std::uint32_t state = 0x12345u;
  auto next = [&] {
    state = state * 1664525u + 1013904223u;
    return static_cast<std::uint8_t>(state >> 24);
  };
  for (int y = 0; y < 14; ++y) {
    for (int x = 0; x < 26; ++x) {
      bmp.set(x, y, {next(), next(), next(), next()});
    }
  }
  const Bitmap small = referenceDownscale(bmp, 13, 7);
  for (int oy = 0; oy < 7; ++oy) {
    for (int ox = 0; ox < 13; ++ox) {
      std::uint32_t r = 0, g = 0, b = 0, a = 0;
      for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
          const Color c = bmp.at(2 * ox + dx, 2 * oy + dy);
          r += c.r;
          g += c.g;
          b += c.b;
          a += c.a;
        }
      }
      const Color got = small.at(ox, oy);
      EXPECT_EQ(got.r, r / 4) << ox << "," << oy;
      EXPECT_EQ(got.g, g / 4) << ox << "," << oy;
      EXPECT_EQ(got.b, b / 4) << ox << "," << oy;
      EXPECT_EQ(got.a, a / 4) << ox << "," << oy;
    }
  }
}

TEST(BitmapTest, MeanColorAndLuma) {
  Bitmap bmp(2, 1);
  bmp.set(0, 0, colors::kBlack);
  bmp.set(1, 0, colors::kWhite);
  const Color mean = bmp.meanColor(bmp.bounds());
  EXPECT_NEAR(mean.r, 127, 1);
  EXPECT_NEAR(bmp.meanLuma(bmp.bounds()), 127.5, 1.0);
}

TEST(BitmapTest, LumaStddevUniformIsZero) {
  Bitmap bmp(8, 8, colors::kGray);
  EXPECT_NEAR(bmp.lumaStddev(bmp.bounds()), 0.0, 1e-4);
}

TEST(BitmapTest, LumaStddevCheckerboardIsLarge) {
  Bitmap bmp(8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      bmp.set(x, y, (x + y) % 2 == 0 ? colors::kBlack : colors::kWhite);
    }
  }
  EXPECT_GT(bmp.lumaStddev(bmp.bounds()), 100.0);
}

TEST(BitmapTest, BoxBlurReducesStddev) {
  Bitmap bmp(16, 16);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      bmp.set(x, y, (x + y) % 2 == 0 ? colors::kBlack : colors::kWhite);
    }
  }
  const double before = bmp.lumaStddev(bmp.bounds());
  bmp.boxBlur(bmp.bounds(), 2);
  EXPECT_LT(bmp.lumaStddev(bmp.bounds()), before / 4.0);
}

TEST(BitmapTest, BoxBlurOnlyTouchesRegion) {
  Bitmap bmp(20, 20, colors::kWhite);
  bmp.fillRect({0, 0, 20, 20}, colors::kWhite);
  bmp.fillRect({5, 5, 4, 4}, colors::kBlack);
  bmp.boxBlur({5, 5, 4, 4}, 1);
  // Outside the region untouched.
  EXPECT_EQ(bmp.at(0, 0), colors::kWhite);
  EXPECT_EQ(bmp.at(15, 15), colors::kWhite);
}

TEST(BitmapTest, WritePpmProducesHeaderAndPayload) {
  Bitmap bmp(3, 2, colors::kRed);
  const std::string path = "/tmp/darpa_test_bitmap.ppm";
  ASSERT_TRUE(bmp.writePpm(path));
  std::ifstream in(path, std::ios::binary);
  std::string header;
  in >> header;
  EXPECT_EQ(header, "P6");
  std::remove(path.c_str());
}

TEST(CanvasTest, FillRectOpaque) {
  Bitmap bmp(10, 10, colors::kWhite);
  Canvas canvas(bmp);
  canvas.fillRect({2, 2, 4, 4}, colors::kBlue);
  EXPECT_EQ(bmp.at(3, 3), colors::kBlue);
  EXPECT_EQ(bmp.at(1, 1), colors::kWhite);
}

TEST(CanvasTest, FillRectTranslucentBlends) {
  Bitmap bmp(4, 4, colors::kWhite);
  Canvas canvas(bmp);
  canvas.fillRect(bmp.bounds(), colors::kBlack.withAlpha(128));
  EXPECT_GT(bmp.at(0, 0).r, 100);
  EXPECT_LT(bmp.at(0, 0).r, 160);
}

TEST(CanvasTest, StrokeRectLeavesInteriorUntouched) {
  Bitmap bmp(20, 20, colors::kWhite);
  Canvas canvas(bmp);
  canvas.strokeRect({2, 2, 16, 16}, colors::kRed, 2);
  EXPECT_EQ(bmp.at(2, 2), colors::kRed);     // border
  EXPECT_EQ(bmp.at(17, 17), colors::kRed);   // border
  EXPECT_EQ(bmp.at(10, 10), colors::kWhite); // interior
  EXPECT_EQ(bmp.at(0, 0), colors::kWhite);   // outside
}

TEST(CanvasTest, RoundedRectCutsCorners) {
  Bitmap bmp(20, 20, colors::kWhite);
  Canvas canvas(bmp);
  canvas.fillRoundedRect({0, 0, 20, 20}, colors::kBlack, 8);
  EXPECT_EQ(bmp.at(0, 0), colors::kWhite);    // corner outside radius
  EXPECT_EQ(bmp.at(10, 10), colors::kBlack);  // center
  EXPECT_EQ(bmp.at(10, 0), colors::kBlack);   // mid-edge
}

TEST(CanvasTest, FillCircle) {
  Bitmap bmp(21, 21, colors::kWhite);
  Canvas canvas(bmp);
  canvas.fillCircle({10, 10}, 5, colors::kGreen);
  EXPECT_EQ(bmp.at(10, 10), colors::kGreen);
  EXPECT_EQ(bmp.at(10, 5), colors::kGreen);   // on radius
  EXPECT_EQ(bmp.at(0, 0), colors::kWhite);    // far corner
}

TEST(CanvasTest, StrokeCircleHollow) {
  Bitmap bmp(31, 31, colors::kWhite);
  Canvas canvas(bmp);
  canvas.strokeCircle({15, 15}, 10, colors::kBlack, 2);
  EXPECT_EQ(bmp.at(15, 15), colors::kWhite);  // hollow center
  EXPECT_EQ(bmp.at(15, 5), colors::kBlack);   // on the ring
}

TEST(CanvasTest, GradientMonotoneLuma) {
  Bitmap bmp(4, 32, colors::kWhite);
  Canvas canvas(bmp);
  canvas.fillVerticalGradient(bmp.bounds(), colors::kBlack, colors::kWhite);
  double prev = -1.0;
  for (int y = 0; y < 32; y += 4) {
    const double l = luma(bmp.at(2, y));
    EXPECT_GE(l, prev);
    prev = l;
  }
}

TEST(CanvasTest, DrawLineEndpoints) {
  Bitmap bmp(10, 10, colors::kWhite);
  Canvas canvas(bmp);
  canvas.drawLine({1, 1}, {8, 8}, colors::kRed);
  EXPECT_EQ(bmp.at(1, 1), colors::kRed);
  EXPECT_EQ(bmp.at(8, 8), colors::kRed);
  EXPECT_EQ(bmp.at(4, 4), colors::kRed);  // on the diagonal
}

TEST(CanvasTest, DrawCrossPutsInkInRect) {
  Bitmap bmp(20, 20, colors::kWhite);
  Canvas canvas(bmp);
  canvas.drawCross({4, 4, 12, 12}, colors::kBlack, 2);
  int inked = 0;
  for (int y = 4; y < 16; ++y) {
    for (int x = 4; x < 16; ++x) {
      if (bmp.at(x, y) == colors::kBlack) ++inked;
    }
  }
  EXPECT_GT(inked, 10);
  EXPECT_EQ(bmp.at(0, 0), colors::kWhite);
}

TEST(CanvasTest, PseudoTextDeterministicAndInked) {
  Bitmap a(100, 20, colors::kWhite);
  Bitmap b(100, 20, colors::kWhite);
  Canvas ca(a);
  Canvas cb(b);
  const Rect ra = ca.drawPseudoText({2, 2}, "close", colors::kBlack, 2);
  const Rect rb = cb.drawPseudoText({2, 2}, "close", colors::kBlack, 2);
  EXPECT_EQ(ra, rb);
  EXPECT_EQ(a, b);
  // Different strings produce different ink.
  Bitmap c(100, 20, colors::kWhite);
  Canvas cc(c);
  cc.drawPseudoText({2, 2}, "openx", colors::kBlack, 2);
  EXPECT_NE(a, c);
}

TEST(CanvasTest, PseudoTextWidthMatchesPaintedRect) {
  Bitmap bmp(200, 20, colors::kWhite);
  Canvas canvas(bmp);
  const Rect painted = canvas.drawPseudoText({0, 0}, "hello w", colors::kBlack, 3);
  EXPECT_EQ(painted.width, Canvas::pseudoTextWidth("hello w", 3));
  EXPECT_EQ(painted.height, Canvas::pseudoTextHeight(3));
}

TEST(CanvasTest, DrawBitmapHonorsLayerAlpha) {
  Bitmap dst(4, 4, colors::kWhite);
  Bitmap src(4, 4, colors::kBlack);
  Canvas canvas(dst);
  canvas.drawBitmap(src, {0, 0}, 0);  // fully transparent layer: no-op
  EXPECT_EQ(dst.at(1, 1), colors::kWhite);
  canvas.drawBitmap(src, {0, 0}, 255);
  EXPECT_EQ(dst.at(1, 1), colors::kBlack);
}

// ------------------------------------------- span fills vs per-pixel blend
// Per-pixel references for the row-span fills: every covered pixel goes
// through one blend() call, and coverage is the per-pixel predicate each
// fill is specified by. The span fills must paint the same bytes.

void refBlendPixel(Bitmap& bmp, int x, int y, Color c) {
  if (x < 0 || y < 0 || x >= bmp.width() || y >= bmp.height()) return;
  bmp.set(x, y, blend(bmp.at(x, y), c));
}

void refFillRect(Bitmap& bmp, const Rect& r, Color c) {
  const Rect clipped = r.intersect(bmp.bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    for (int x = clipped.left(); x < clipped.right(); ++x) {
      refBlendPixel(bmp, x, y, c);
    }
  }
}

void refFillRoundedRect(Bitmap& bmp, const Rect& r, Color c, int radius) {
  radius = std::min(std::max(radius, 0), std::min(r.width, r.height) / 2);
  if (radius == 0) {
    refFillRect(bmp, r, c);
    return;
  }
  const Rect clipped = r.intersect(bmp.bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    for (int x = clipped.left(); x < clipped.right(); ++x) {
      // Nearest point of the rect's core (inset by the radius); its bounds
      // cross by one when the radius is half an even side.
      const int cx = std::min(std::max(x, r.x + radius), r.right() - 1 - radius);
      const int cy =
          std::min(std::max(y, r.y + radius), r.bottom() - 1 - radius);
      const int dx = x - cx;
      const int dy = y - cy;
      if (dx * dx + dy * dy <= radius * radius) refBlendPixel(bmp, x, y, c);
    }
  }
}

void refFillCircle(Bitmap& bmp, Point center, int radius, Color c) {
  for (int y = center.y - radius; y <= center.y + radius; ++y) {
    for (int x = center.x - radius; x <= center.x + radius; ++x) {
      const int dx = x - center.x;
      const int dy = y - center.y;
      if (dx * dx + dy * dy <= radius * radius) refBlendPixel(bmp, x, y, c);
    }
  }
}

void refFillVerticalGradient(Bitmap& bmp, const Rect& r, Color top,
                             Color bottom) {
  const Rect clipped = r.intersect(bmp.bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    const double t =
        r.height <= 1 ? 0.0 : static_cast<double>(y - r.y) / (r.height - 1);
    const Color row = lerp(top, bottom, t);
    for (int x = clipped.left(); x < clipped.right(); ++x) {
      refBlendPixel(bmp, x, y, row);
    }
  }
}

/// Alphas that hit every blend() branch: skip, replace, and the weights
/// next to both ends.
std::uint8_t randomAlpha(Rng& rng) {
  constexpr std::uint8_t kEdges[] = {0, 1, 2, 127, 128, 253, 254, 255};
  return rng.chance(0.5) ? kEdges[rng.uniformInt(0, 7)]
                         : static_cast<std::uint8_t>(rng.uniformInt(0, 255));
}

Color randomColor(Rng& rng) {
  return Color::rgba(static_cast<std::uint8_t>(rng.uniformInt(0, 255)),
                     static_cast<std::uint8_t>(rng.uniformInt(0, 255)),
                     static_cast<std::uint8_t>(rng.uniformInt(0, 255)),
                     randomAlpha(rng));
}

/// A 37x29 destination: opaque everywhere (every composited screen pixel)
/// or with random per-pixel alpha, including fully transparent pixels.
Bitmap randomDestination(Rng& rng, bool opaque) {
  Bitmap bmp(37, 29);
  for (int y = 0; y < bmp.height(); ++y) {
    for (int x = 0; x < bmp.width(); ++x) {
      Color c = randomColor(rng);
      if (opaque) c.a = 255;
      bmp.set(x, y, c);
    }
  }
  return bmp;
}

/// A rect that may hang off any of the four edges of a 37x29 bitmap (or
/// miss it entirely), with zero-sized and even-sided shapes well covered.
Rect randomRect(Rng& rng) {
  const int w = rng.uniformInt(0, 3) == 0 ? 2 * rng.uniformInt(0, 12)
                                          : rng.uniformInt(0, 30);
  const int h = rng.uniformInt(0, 3) == 0 ? 2 * rng.uniformInt(0, 12)
                                          : rng.uniformInt(0, 30);
  return {rng.uniformInt(-20, 45), rng.uniformInt(-20, 36), w, h};
}

template <typename Paint, typename Reference>
void expectSameAsReference(Rng& rng, int trials, Paint paint,
                           Reference reference, const char* what) {
  for (int trial = 0; trial < trials; ++trial) {
    const bool opaque = trial % 2 == 0;
    Bitmap span = randomDestination(rng, opaque);
    Bitmap ref = span.clone();
    const std::uint64_t shapeSeed = rng.next();
    Rng spanShape(shapeSeed);
    Rng refShape(shapeSeed);
    Canvas canvas(span);
    paint(canvas, spanShape);
    reference(ref, refShape);
    ASSERT_EQ(span, ref) << what << " trial " << trial
                         << (opaque ? " (opaque dst)" : " (translucent dst)");
  }
}

TEST(CanvasSpanTest, FillRectMatchesPerPixelBlend) {
  Rng rng(101);
  expectSameAsReference(
      rng, 600,
      [](Canvas& canvas, Rng& shape) {
        const Rect r = randomRect(shape);
        canvas.fillRect(r, randomColor(shape));
      },
      [](Bitmap& bmp, Rng& shape) {
        const Rect r = randomRect(shape);
        refFillRect(bmp, r, randomColor(shape));
      },
      "fillRect");
}

TEST(CanvasSpanTest, FillRoundedRectMatchesPerPixelBlend) {
  Rng rng(202);
  // Radius from 0 up past half the shorter side (the fill clamps it), so
  // radius = half an even side is hit often.
  expectSameAsReference(
      rng, 1200,
      [](Canvas& canvas, Rng& shape) {
        const Rect r = randomRect(shape);
        const Color c = randomColor(shape);
        canvas.fillRoundedRect(r, c, shape.uniformInt(0, 16));
      },
      [](Bitmap& bmp, Rng& shape) {
        const Rect r = randomRect(shape);
        const Color c = randomColor(shape);
        refFillRoundedRect(bmp, r, c, shape.uniformInt(0, 16));
      },
      "fillRoundedRect");
}

TEST(CanvasSpanTest, RoundedRectWithRadiusHalfAnEvenSide) {
  // The shapes that cross the core bounds: a 40x20 toggle with radius 10,
  // s x s close buttons with radius s/2, and d x d round CTAs — placed
  // inside, and clipped by each of the four edges.
  const std::array<std::array<int, 3>, 6> shapes = {
      {{40, 20, 10}, {20, 40, 10}, {2, 2, 1}, {8, 8, 4}, {24, 24, 12},
       {30, 30, 15}}};
  const std::array<Point, 5> origins = {
      {{4, 3}, {-9, 5}, {20, -7}, {25, 8}, {6, 18}}};
  Rng rng(303);
  for (const auto& s : shapes) {
    for (const Point o : origins) {
      for (const bool opaque : {true, false}) {
        Bitmap span = randomDestination(rng, opaque);
        Bitmap ref = span.clone();
        const Color c = randomColor(rng);
        Canvas(span).fillRoundedRect({o.x, o.y, s[0], s[1]}, c, s[2]);
        refFillRoundedRect(ref, {o.x, o.y, s[0], s[1]}, c, s[2]);
        ASSERT_EQ(span, ref) << s[0] << "x" << s[1] << " r=" << s[2]
                             << " at (" << o.x << "," << o.y << ")";
      }
    }
  }
}

TEST(CanvasSpanTest, FillCircleMatchesPerPixelBlend) {
  Rng rng(404);
  expectSameAsReference(
      rng, 800,
      [](Canvas& canvas, Rng& shape) {
        const Point center{shape.uniformInt(-12, 48), shape.uniformInt(-12, 40)};
        const int radius =
            shape.chance(0.4) ? shape.uniformInt(0, 2) : shape.uniformInt(0, 18);
        canvas.fillCircle(center, radius, randomColor(shape));
      },
      [](Bitmap& bmp, Rng& shape) {
        const Point center{shape.uniformInt(-12, 48), shape.uniformInt(-12, 40)};
        const int radius =
            shape.chance(0.4) ? shape.uniformInt(0, 2) : shape.uniformInt(0, 18);
        refFillCircle(bmp, center, radius, randomColor(shape));
      },
      "fillCircle");
}

TEST(CanvasSpanTest, FillVerticalGradientMatchesPerPixelBlend) {
  Rng rng(505);
  expectSameAsReference(
      rng, 600,
      [](Canvas& canvas, Rng& shape) {
        const Rect r = randomRect(shape);
        const Color top = randomColor(shape);
        canvas.fillVerticalGradient(r, top, randomColor(shape));
      },
      [](Bitmap& bmp, Rng& shape) {
        const Rect r = randomRect(shape);
        const Color top = randomColor(shape);
        refFillVerticalGradient(bmp, r, top, randomColor(shape));
      },
      "fillVerticalGradient");
}

TEST(CanvasSpanTest, OpaqueRunsAtEveryOffsetAndLength) {
  // An opaque run is stored eight pixels at a time from wherever it starts:
  // every start offset 0-15 (two full store widths of alignment) and every
  // length 0-40 must paint exactly the run and nothing beside it.
  Rng rng(606);
  const Bitmap dst = [&] {
    Bitmap bmp(64, 2);
    for (int y = 0; y < bmp.height(); ++y) {
      for (int x = 0; x < bmp.width(); ++x) {
        bmp.set(x, y, randomColor(rng).withAlpha(255));
      }
    }
    return bmp;
  }();
  for (int offset = 0; offset <= 15; ++offset) {
    for (int length = 0; length <= 40; ++length) {
      const Color c = randomColor(rng).withAlpha(255);
      Bitmap span = dst.clone();
      Bitmap ref = dst.clone();
      Canvas(span).fillRect({offset, 1, length, 1}, c);
      refFillRect(ref, {offset, 1, length, 1}, c);
      ASSERT_EQ(span, ref) << "run at " << offset << " length " << length;
    }
  }
}

/// The 3x5 dot pattern drawPseudoText is specified by, one bit per dot.
std::uint16_t refGlyphMask(char ch) {
  std::uint32_t h = static_cast<std::uint32_t>(static_cast<unsigned char>(ch));
  h ^= h << 13;
  h *= 0x9e3779b1u;
  h ^= h >> 15;
  std::uint16_t mask = static_cast<std::uint16_t>(h & 0x7fff);
  if (std::popcount(static_cast<unsigned>(mask)) < 5) mask |= 0x2955;
  return mask;
}

/// Pseudo-text as one blended cell x cell square per set dot.
void refDrawPseudoText(Bitmap& bmp, Point origin, std::string_view text,
                       Color c, int cell) {
  int x = origin.x;
  for (const char ch : text) {
    if (ch == ' ') {
      x += 3 * cell;
      continue;
    }
    const std::uint16_t mask = refGlyphMask(ch);
    for (int row = 0; row < 5; ++row) {
      for (int col = 0; col < 3; ++col) {
        if (mask & (1u << (row * 3 + col))) {
          refFillRect(bmp, {x + col * cell, origin.y + row * cell, cell, cell},
                      c);
        }
      }
    }
    x += 4 * cell;
  }
}

TEST(CanvasSpanTest, PseudoTextMatchesPerDotBlend) {
  // Every dot is painted exactly once, so translucent text blends each
  // covered pixel once, whatever runs the glyph rows are painted as.
  Rng rng(707);
  constexpr std::string_view kTexts[] = {"12:00", "close", "Skip ad >", "x",
                                         "Allow all cookies"};
  expectSameAsReference(
      rng, 400,
      [&](Canvas& canvas, Rng& shape) {
        const Point origin{shape.uniformInt(-30, 36), shape.uniformInt(-12, 28)};
        const std::string_view text = kTexts[shape.uniformInt(0, 4)];
        const Color c = randomColor(shape);
        canvas.drawPseudoText(origin, text, c, shape.uniformInt(1, 3));
      },
      [&](Bitmap& bmp, Rng& shape) {
        const Point origin{shape.uniformInt(-30, 36), shape.uniformInt(-12, 28)};
        const std::string_view text = kTexts[shape.uniformInt(0, 4)];
        const Color c = randomColor(shape);
        refDrawPseudoText(bmp, origin, text, c, shape.uniformInt(1, 3));
      },
      "drawPseudoText");
}

// ------------------------------------------------ composited screen digest

TEST(CompositeDigestTest, GeneratedScreensDigestIsStable) {
  // Pins every composited pixel of a fixed-seed generated population:
  // benign screens, footnote-4 hard negatives, native AUIs, AUIs with 75 %
  // of third-party interstitials hosted in WebViews, and decorated AUI
  // screens (one decoration style per screen, all four in rotation). A
  // change to any fill, blend, or draw order that moves one byte fails.
  apps::ScreenGenerator native({}, /*seed=*/5);
  apps::ScreenGenerator::Params webParams;
  webParams.webViewAuiProb = 0.75;
  apps::ScreenGenerator web(webParams, /*seed=*/1005);

  std::uint64_t digest = 1469598103934665603ULL;
  auto mix = [&digest](std::uint64_t v) {
    digest ^= v;
    digest *= 1099511628211ULL;
  };
  int screens = 0;
  int decorations = 0;
  auto composite = [&](apps::GeneratedScreen screen, int decorate) {
    android::WindowManager wm;
    wm.showAppWindow("com.composite.digest", std::move(screen.root), false);
    if (decorate >= 0) {
      const auto style = static_cast<core::DecorationStyle>(decorate % 4);
      for (const auto* boxes : {&screen.truth.upoBoxes, &screen.truth.agoBoxes}) {
        for (const Rect& box : *boxes) {
          const Rect target = box.inflated(5);
          android::LayoutParams lp;
          lp.x = target.x;
          lp.y = target.y - wm.config().statusBarHeight;
          lp.width = target.width;
          lp.height = target.height;
          wm.addOverlay(std::make_unique<core::DecorationView>(
                            boxes == &screen.truth.upoBoxes ? colors::kRed
                                                            : colors::kBlue,
                            4, style),
                        lp);
          ++decorations;
        }
      }
    }
    const Bitmap pixels = wm.composite();
    mix(static_cast<std::uint64_t>(pixels.width()));
    mix(static_cast<std::uint64_t>(pixels.height()));
    for (int y = 0; y < pixels.height(); ++y) {
      for (int x = 0; x < pixels.width(); ++x) mix(pixels.at(x, y).toArgb());
    }
    ++screens;
  };
  for (int i = 0; i < 24; ++i) {
    composite(native.makeBenign(), -1);
    composite(native.makeHardNegative(), -1);
    composite(native.makeAui(native.randomSpec()), -1);
    composite(web.makeAui(web.randomSpec()), -1);
    composite(native.makeAui(native.randomSpec()), i);
  }
  EXPECT_EQ(screens, 120);
  EXPECT_GT(decorations, 24);
  EXPECT_EQ(digest, 0x2E7A2EB8E6A8BF47ULL);
}

}  // namespace
}  // namespace darpa::gfx
