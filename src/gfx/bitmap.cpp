#include "gfx/bitmap.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

namespace darpa::gfx {

// Value-initialised pixels are Color{}, opaque black (every capture's
// background); other colours are stored over them by fillPixels, which is
// far cheaper than vector's own per-pixel copy-fill.
Bitmap::Bitmap(int width, int height, Color fill)
    : width_(std::max(width, 0)),
      height_(std::max(height, 0)),
      pixels_(pixelCount()) {
  if (fill != Color{}) fillPixels(pixels_, fill);
}

// The moved-from bitmap must be a valid empty bitmap: at()/set() on it
// would otherwise index pixels it no longer owns. (A moved-from vector is
// empty; its dimensions are reset here.)
Bitmap::Bitmap(Bitmap&& other) noexcept
    : width_(std::exchange(other.width_, 0)),
      height_(std::exchange(other.height_, 0)),
      pixels_(std::move(other.pixels_)) {}

Bitmap& Bitmap::operator=(Bitmap&& other) noexcept {
  width_ = std::exchange(other.width_, 0);
  height_ = std::exchange(other.height_, 0);
  pixels_ = std::exchange(other.pixels_, {});
  return *this;
}

Bitmap Bitmap::clone() const {
  Bitmap out;
  out.width_ = width_;
  out.height_ = height_;
  out.pixels_ = pixels_;
  return out;
}

bool operator==(const Bitmap& a, const Bitmap& b) {
  return a.width_ == b.width_ && a.height_ == b.height_ &&
         a.pixels_ == b.pixels_;
}

#if DARPA_BOUNDS_CHECKS
void Bitmap::boundsFailure(int x, int y) const {
  std::fprintf(stderr,
               "Bitmap bounds violation: (%d, %d) outside %dx%d\n", x, y,
               width_, height_);
  std::abort();
}
#endif

Color Bitmap::atClamped(int x, int y) const {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) {
    return colors::kTransparent;
  }
  return at(x, y);
}

void Bitmap::blendPixel(int x, int y, Color c) {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) return;
  set(x, y, blend(at(x, y), c));
}

void Bitmap::fill(Color c) { fillPixels(pixels_, c); }

void Bitmap::fillRect(const Rect& r, Color c) {
  const Rect clipped = r.intersect(bounds());
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    for (int x = clipped.left(); x < clipped.right(); ++x) set(x, y, c);
  }
}

Bitmap Bitmap::crop(const Rect& r) const {
  const Rect clipped = r.intersect(bounds());
  Bitmap out(clipped.width, clipped.height);
  for (int y = 0; y < clipped.height; ++y) {
    for (int x = 0; x < clipped.width; ++x) {
      out.set(x, y, at(clipped.x + x, clipped.y + y));
    }
  }
  return out;
}

void Bitmap::boxBlur(const Rect& region, int radius) {
  const Rect clipped = region.intersect(bounds());
  if (clipped.empty() || radius < 1) return;
  // Horizontal then vertical pass over a working copy of the region.
  Bitmap work = crop(clipped);
  Bitmap tmp = work.clone();
  const int w = work.width();
  const int h = work.height();
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      int r = 0, g = 0, b = 0, n = 0;
      for (int dx = -radius; dx <= radius; ++dx) {
        const int sx = std::clamp(x + dx, 0, w - 1);
        const Color c = work.at(sx, y);
        r += c.r;
        g += c.g;
        b += c.b;
        ++n;
      }
      tmp.set(x, y,
              {static_cast<std::uint8_t>(r / n),
               static_cast<std::uint8_t>(g / n),
               static_cast<std::uint8_t>(b / n), work.at(x, y).a});
    }
  }
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      int r = 0, g = 0, b = 0, n = 0;
      for (int dy = -radius; dy <= radius; ++dy) {
        const int sy = std::clamp(y + dy, 0, h - 1);
        const Color c = tmp.at(x, sy);
        r += c.r;
        g += c.g;
        b += c.b;
        ++n;
      }
      set(clipped.x + x, clipped.y + y,
          {static_cast<std::uint8_t>(r / n), static_cast<std::uint8_t>(g / n),
           static_cast<std::uint8_t>(b / n), tmp.at(x, y).a});
    }
  }
}

Color Bitmap::meanColor(const Rect& r) const {
  const Rect clipped = r.intersect(bounds());
  if (clipped.empty()) return colors::kWhite;
  std::uint64_t rr = 0, gg = 0, bb = 0;
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    for (int x = clipped.left(); x < clipped.right(); ++x) {
      const Color c = at(x, y);
      rr += c.r;
      gg += c.g;
      bb += c.b;
    }
  }
  const std::uint64_t n = static_cast<std::uint64_t>(clipped.area());
  return Color::rgb(static_cast<std::uint8_t>(rr / n),
                    static_cast<std::uint8_t>(gg / n),
                    static_cast<std::uint8_t>(bb / n));
}

double Bitmap::meanLuma(const Rect& r) const {
  const Rect clipped = r.intersect(bounds());
  if (clipped.empty()) return 0.0;
  double sum = 0.0;
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    for (int x = clipped.left(); x < clipped.right(); ++x) {
      sum += luma(at(x, y));
    }
  }
  return sum / static_cast<double>(clipped.area());
}

double Bitmap::lumaStddev(const Rect& r) const {
  const Rect clipped = r.intersect(bounds());
  if (clipped.empty()) return 0.0;
  double sum = 0.0;
  double sumSq = 0.0;
  for (int y = clipped.top(); y < clipped.bottom(); ++y) {
    for (int x = clipped.left(); x < clipped.right(); ++x) {
      const double l = luma(at(x, y));
      sum += l;
      sumSq += l * l;
    }
  }
  const double n = static_cast<double>(clipped.area());
  const double mean = sum / n;
  const double var = std::max(sumSq / n - mean * mean, 0.0);
  return std::sqrt(var);
}

bool Bitmap::writePpm(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "P6\n" << width_ << " " << height_ << "\n255\n";
  for (std::size_t i = 0; i < pixelCount(); ++i) {
    const Color c = pixels_[i];
    out.put(static_cast<char>(c.r));
    out.put(static_cast<char>(c.g));
    out.put(static_cast<char>(c.b));
  }
  return static_cast<bool>(out);
}

}  // namespace darpa::gfx
