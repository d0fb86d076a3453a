// Box-filter downscale of a bitmap, kept as a test oracle. The detector
// decimates inside cv::FeatureMap, in one pass with its luma and contrast
// rows; cv_test.cpp's naive feature reference starts from this function,
// and gfx_test.cpp pins its own behaviour.
#pragma once

#include <algorithm>
#include <cstdint>

#include "gfx/bitmap.h"

namespace darpa::gfx {

/// Box-filter downscale of `src` to the given size (both dims >= 1): each
/// output pixel is the truncated per-channel mean of its source block. An
/// empty source gives an all-white bitmap.
inline Bitmap referenceDownscale(const Bitmap& src, int newWidth,
                                 int newHeight) {
  newWidth = std::max(newWidth, 1);
  newHeight = std::max(newHeight, 1);
  Bitmap out(newWidth, newHeight);
  if (src.empty()) return out;
  const int width = src.width();
  const int height = src.height();
  if (width == 2 * newWidth && height == 2 * newHeight) {
    // Exact 2x decimation: every output pixel averages a full 2x2 block,
    // so the general path's bounds arithmetic and per-pixel divides
    // collapse to a shift. The sums and the truncating division by 4 are
    // the very ones the general path computes.
    for (int oy = 0; oy < newHeight; ++oy) {
      const int y0 = 2 * oy;
      for (int ox = 0; ox < newWidth; ++ox) {
        const int x0 = 2 * ox;
        const Color c00 = src.at(x0, y0), c01 = src.at(x0 + 1, y0);
        const Color c10 = src.at(x0, y0 + 1), c11 = src.at(x0 + 1, y0 + 1);
        const std::uint32_t r = static_cast<std::uint32_t>(c00.r) + c01.r +
                                c10.r + c11.r;
        const std::uint32_t g = static_cast<std::uint32_t>(c00.g) + c01.g +
                                c10.g + c11.g;
        const std::uint32_t b = static_cast<std::uint32_t>(c00.b) + c01.b +
                                c10.b + c11.b;
        const std::uint32_t a = static_cast<std::uint32_t>(c00.a) + c01.a +
                                c10.a + c11.a;
        out.set(ox, oy,
                {static_cast<std::uint8_t>(r >> 2),
                 static_cast<std::uint8_t>(g >> 2),
                 static_cast<std::uint8_t>(b >> 2),
                 static_cast<std::uint8_t>(a >> 2)});
      }
    }
    return out;
  }
  for (int oy = 0; oy < newHeight; ++oy) {
    const int y0 = oy * height / newHeight;
    const int y1 = std::max((oy + 1) * height / newHeight, y0 + 1);
    for (int ox = 0; ox < newWidth; ++ox) {
      const int x0 = ox * width / newWidth;
      const int x1 = std::max((ox + 1) * width / newWidth, x0 + 1);
      std::uint64_t r = 0, g = 0, b = 0, a = 0;
      for (int y = y0; y < std::min(y1, height); ++y) {
        for (int x = x0; x < std::min(x1, width); ++x) {
          const Color c = src.at(x, y);
          r += c.r;
          g += c.g;
          b += c.b;
          a += c.a;
        }
      }
      const std::uint64_t n =
          static_cast<std::uint64_t>(std::min(y1, height) - y0) *
          (std::min(x1, width) - x0);
      out.set(ox, oy,
              {static_cast<std::uint8_t>(r / n),
               static_cast<std::uint8_t>(g / n),
               static_cast<std::uint8_t>(b / n),
               static_cast<std::uint8_t>(a / n)});
    }
  }
  return out;
}

}  // namespace darpa::gfx
