// A from-scratch RGBA bitmap — the substrate for "screenshots".
//
// In the paper, DARPA's CV model consumes real screenshots taken through the
// Accessibility Service. In this reproduction the WindowManager composites
// live windows into a Bitmap, so the detector consumes actual pixel data and
// the visual asymmetry of an AUI (size, position, contrast, transparency) is
// genuinely present in the input rather than faked through metadata.
//
// A Bitmap owns its pixels in a plain vector, and a capture moves from the
// window manager into the screenshot vault (core/security.h) without a
// pixel copy. Because a stray `Bitmap b = other;` used to silently
// deep-copy ~1 MB of pixels, the copy constructor is deleted: copies must
// be spelled clone().
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/color.h"
#include "util/geometry.h"

// Bounds checking for Bitmap::at/set. On by default in debug builds (NDEBUG
// unset); the sanitizer CI lanes force it on explicitly (-DDARPA_BOUNDS_CHECKS=1)
// so the release-optimized default build keeps the accessors branch-free.
#ifndef DARPA_BOUNDS_CHECKS
#ifdef NDEBUG
#define DARPA_BOUNDS_CHECKS 0
#else
#define DARPA_BOUNDS_CHECKS 1
#endif
#endif

namespace darpa::gfx {

/// Stores `c` into every pixel of `pixels`: eight pixels per 32-byte vector
/// store, then the tail one pixel at a time. The canvas's opaque runs, the
/// Bitmap constructor's non-black fill and Bitmap::fill (the scrub) all
/// store through it. The vector is spelled out because GCC 12 stores a
/// std::fill over the 4-byte Color one pixel at a time in the canvas's run
/// loop, at -O2 and -O3 alike; memcpy writes the bytes, so no aliasing rule
/// is bent.
inline void fillPixels(std::span<Color> pixels, Color c) {
  using Pixels8 = std::uint32_t __attribute__((vector_size(32)));
  static_assert(sizeof(Color) == sizeof(std::uint32_t));
  std::uint32_t word;
  std::memcpy(&word, &c, sizeof word);
  const Pixels8 eight = {word, word, word, word, word, word, word, word};
  Color* const p = pixels.data();
  const std::size_t n = pixels.size();
  const std::size_t vectorEnd = n - n % 8;
  for (std::size_t i = 0; i < vectorEnd; i += 8) {
    std::memcpy(static_cast<void*>(p + i), &eight, sizeof eight);
  }
  for (std::size_t i = vectorEnd; i < n; ++i) p[i] = c;
}

class Bitmap {
 public:
  Bitmap() = default;
  Bitmap(int width, int height, Color fill = colors::kWhite);

  // An implicit copy would silently deep-copy a full screen, so copies are
  // explicit (clone()). Moves transfer the pixels and leave the source
  // empty; they are noexcept so a vector of bitmaps moves, never copies.
  Bitmap(const Bitmap&) = delete;
  Bitmap& operator=(const Bitmap&) = delete;
  Bitmap(Bitmap&& other) noexcept;
  Bitmap& operator=(Bitmap&& other) noexcept;
  ~Bitmap() = default;

  /// Deep copy.
  [[nodiscard]] Bitmap clone() const;

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] Size size() const { return {width_, height_}; }
  [[nodiscard]] Rect bounds() const { return {0, 0, width_, height_}; }
  [[nodiscard]] bool empty() const { return width_ <= 0 || height_ <= 0; }
  [[nodiscard]] std::size_t pixelCount() const {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }
  /// Bytes of pixel payload.
  [[nodiscard]] std::size_t pixelBytes() const {
    return pixelCount() * sizeof(Color);
  }

  /// Pixel access; caller guarantees (x, y) is in bounds. Debug and
  /// sanitizer builds assert the contract (DARPA_BOUNDS_CHECKS).
  [[nodiscard]] Color at(int x, int y) const {
#if DARPA_BOUNDS_CHECKS
    checkBounds(x, y);
#endif
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }
  void set(int x, int y, Color c) {
#if DARPA_BOUNDS_CHECKS
    checkBounds(x, y);
#endif
    pixels_[static_cast<std::size_t>(y) * width_ + x] = c;
  }

  /// Row `y`'s width() pixels; caller guarantees 0 <= y < height(). The
  /// canvas paints and the feature pass reads whole rows through this.
  [[nodiscard]] std::span<Color> row(int y) {
#if DARPA_BOUNDS_CHECKS
    checkBounds(0, y);
#endif
    return {pixels_.data() + static_cast<std::size_t>(y) * width_,
            static_cast<std::size_t>(width_)};
  }
  [[nodiscard]] std::span<const Color> row(int y) const {
#if DARPA_BOUNDS_CHECKS
    checkBounds(0, y);
#endif
    return {pixels_.data() + static_cast<std::size_t>(y) * width_,
            static_cast<std::size_t>(width_)};
  }

  /// Bounds-checked read; out-of-range returns transparent.
  [[nodiscard]] Color atClamped(int x, int y) const;

  /// Alpha-blends `c` onto the pixel if in bounds, else no-op.
  void blendPixel(int x, int y, Color c);

  /// Overwrites every pixel with `c`. Out of line on purpose: it is the
  /// §IV-E scrub, and an inlined fill just before operator delete is a dead
  /// store the optimizer may drop (core/security.cpp).
  void fill(Color c);
  void fillRect(const Rect& r, Color c);

  /// Copy of the sub-region clipped to bounds.
  [[nodiscard]] Bitmap crop(const Rect& r) const;

  /// Separable box blur with the given radius (>= 1), clipped to `region`.
  void boxBlur(const Rect& region, int radius);

  /// Mean color over a region (clipped to bounds); white if region is empty.
  [[nodiscard]] Color meanColor(const Rect& r) const;

  /// Mean luma (0..255) over a region clipped to bounds.
  [[nodiscard]] double meanLuma(const Rect& r) const;

  /// Luma standard deviation over a region — a cheap texture measure.
  [[nodiscard]] double lumaStddev(const Rect& r) const;

  /// Writes a binary PPM (P6) file; returns false on I/O failure. Alpha is
  /// dropped (screenshots are opaque after compositing).
  bool writePpm(const std::string& path) const;

  /// Value equality: same dimensions and same pixel contents.
  friend bool operator==(const Bitmap& a, const Bitmap& b);

 private:
#if DARPA_BOUNDS_CHECKS
  void checkBounds(int x, int y) const {
    if (x < 0 || y < 0 || x >= width_ || y >= height_) {
      boundsFailure(x, y);
    }
  }
  [[noreturn]] void boundsFailure(int x, int y) const;
#endif

  int width_ = 0;
  int height_ = 0;
  std::vector<Color> pixels_;  ///< Row-major, width_ * height_ pixels.
};

}  // namespace darpa::gfx
