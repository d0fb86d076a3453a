#include "cv/features.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <tuple>
#include <utility>

#ifdef __AVX__
#include <immintrin.h>
#endif

namespace darpa::cv {

int ChannelSet::count() const {
  int n = 0;
  for (int i = 0; i < kChannelCount; ++i) n += (mask >> i) & 1;
  return n;
}

namespace {

// Integer luma 299r + 587g + 114b: exact in int32 (max 255'000), so window
// sums over it are associative and the separable sliding-window contrast
// pass is bit-identical to the naive 25-tap reference. The float channel
// value divides by 255'000, matching luma()/255 up to the scale.
inline std::int32_t intLuma(Color c) {
  return 299 * c.r + 587 * c.g + 114 * c.b;
}
constexpr double kIntLumaScale = 255'000.0;

// Per-thread arena for the feature pass: plane and row buffers reused
// across FeatureMap constructions, growth-counted for the zero-steady-state-
// allocation contract.
struct FeatureScratch {
  std::vector<Color> pixels;           ///< Decimated capture plane.
  std::vector<float> lumaF;            ///< Float luma plane (Sobel input).
  std::vector<std::int32_t> hsum;      ///< Horizontal 5-tap sums, full plane.
  std::vector<std::int32_t> lumaIRow;  ///< Integer luma, one row (hsum input).
  std::vector<std::int32_t> vsum;      ///< Vertical sliding sums, one row.
  /// One row each of edge, contrast, saturation and saliency values (luma
  /// reads its plane row), and a zero row that disabled channels sum.
  std::vector<float> values;
  /// Retired integral buffers, recycled by the next FeatureMap on this
  /// thread (bounded; see ~FeatureMap).
  std::vector<std::vector<double>> integralPool;
  FeatureScratchStats stats;

  template <typename T>
  T* ensure(std::vector<T>& v, std::size_t n) {
    const std::size_t before = v.capacity();
    if (n > before) {
      v.reserve(n);
      ++stats.growths;
      stats.grownBytes +=
          static_cast<std::int64_t>((v.capacity() - before) * sizeof(T));
    }
    if (v.size() < n) v.resize(n);
    return v.data();
  }
};

FeatureScratch& featureScratch() {
  thread_local FeatureScratch scratch;
  return scratch;
}

/// One decimated row from two capture rows at exactly 2x: each output
/// pixel is its 2x2 block's per-channel sum shifted right by 2, the sum and
/// truncating division of the general box filter. The four channels are
/// summed as 16-bit lanes of two 32-bit words (even bytes r and b, odd
/// bytes g and a; a lane peaks at 4 * 255), a loop the compiler vectorizes.
void decimate2xRow(const Color* r0, const Color* r1, int w, Color* out) {
  constexpr std::uint32_t kLanes = 0x00ff00ffu;
  for (int x = 0; x < w; ++x) {
    std::uint32_t a, b, c, d;
    std::memcpy(&a, r0 + 2 * x, sizeof a);
    std::memcpy(&b, r0 + 2 * x + 1, sizeof b);
    std::memcpy(&c, r1 + 2 * x, sizeof c);
    std::memcpy(&d, r1 + 2 * x + 1, sizeof d);
    const std::uint32_t even =
        (a & kLanes) + (b & kLanes) + (c & kLanes) + (d & kLanes);
    const std::uint32_t odd = ((a >> 8) & kLanes) + ((b >> 8) & kLanes) +
                              ((c >> 8) & kLanes) + ((d >> 8) & kLanes);
    const std::uint32_t mean =
        ((even >> 2) & kLanes) | (((odd >> 2) & kLanes) << 8);
    std::memcpy(static_cast<void*>(out + x), &mean, sizeof mean);
  }
}

/// Output row `oy` of a box-filter decimation of `src` to `w` x `h`: each
/// output pixel is the truncated per-channel mean of its source block.
void decimateRow(const gfx::Bitmap& src, int w, int h, int oy, Color* out) {
  const int sw = src.width();
  const int sh = src.height();
  const int y0 = oy * sh / h;
  const int y1 = std::min(std::max((oy + 1) * sh / h, y0 + 1), sh);
  for (int ox = 0; ox < w; ++ox) {
    const int x0 = ox * sw / w;
    const int x1 = std::min(std::max((ox + 1) * sw / w, x0 + 1), sw);
    std::uint64_t r = 0, g = 0, b = 0, a = 0;
    for (int y = y0; y < y1; ++y) {
      const Color* row = src.row(y).data();
      for (int x = x0; x < x1; ++x) {
        r += row[x].r;
        g += row[x].g;
        b += row[x].b;
        a += row[x].a;
      }
    }
    const std::uint64_t n = static_cast<std::uint64_t>(y1 - y0) * (x1 - x0);
    out[ox] = {static_cast<std::uint8_t>(r / n), static_cast<std::uint8_t>(g / n),
               static_cast<std::uint8_t>(b / n), static_cast<std::uint8_t>(a / n)};
  }
}

/// Horizontal 5-tap sums of one integer luma row, taps clamped to the row.
/// Only the first and last two columns can reach past an end.
void fiveTapRow(const std::int32_t* L, int w, std::int32_t* out) {
  auto clamped = [&](int x) {
    std::int32_t sum = 0;
    for (int d = -2; d <= 2; ++d) sum += L[std::clamp(x + d, 0, w - 1)];
    return sum;
  };
  const int lo = std::min(2, w);
  const int hi = std::max(w - 2, lo);
  for (int x = 0; x < lo; ++x) out[x] = clamped(x);
  for (int x = lo; x < hi; ++x) {
    out[x] = L[x - 2] + L[x - 1] + L[x] + L[x + 1] + L[x + 2];
  }
  for (int x = hi; x < w; ++x) out[x] = clamped(x);
}

/// One row of Sobel magnitudes over the float luma rows above, at and below
/// it (already clamped to the frame). Clamped columns reproduce the
/// reference lumaAt() lambda's values exactly; the interior loop has no
/// clamps, so the compiler vectorizes it.
void edgeRow(const float* up, const float* mid, const float* dn, int w,
             float* out) {
  auto sobel = [&](int x, int xl, int xr) {
    const float gx = (up[xr] + 2 * mid[xr] + dn[xr]) -
                     (up[xl] + 2 * mid[xl] + dn[xl]);
    const float gy = (dn[xl] + 2 * dn[x] + dn[xr]) -
                     (up[xl] + 2 * up[x] + up[xr]);
    return std::min(std::sqrt(gx * gx + gy * gy) / 4.0f, 1.0f);
  };
  out[0] = sobel(0, 0, std::min(1, w - 1));
  for (int x = 1; x < w - 1; ++x) out[x] = sobel(x, x - 1, x + 1);
  if (w > 1) out[w - 1] = sobel(w - 1, w - 2, w - 1);
}

}  // namespace

const FeatureScratchStats& featureScratchStats() {
  return featureScratch().stats;
}

FeatureMap::FeatureMap(const gfx::Bitmap& screenshot, ChannelSet channels,
                       int scale)
    : width_(std::max(screenshot.width() / std::max(scale, 1), 1)),
      height_(std::max(screenshot.height() / std::max(scale, 1), 1)),
      scale_(std::max(scale, 1)),
      fullSize_(screenshot.size()),
      channels_(channels) {
  const int w = width_;
  const std::size_t cornerRow =
      static_cast<std::size_t>(w + 1) * kChannelCount;

  FeatureScratch& s = featureScratch();

  // Integral buffer: recycle a retired one when one is pooled, and zero only
  // what the row sums below do not overwrite — corner row 0 and corner
  // column 0 (the integral borders). A cold buffer is a counted growth like
  // any other arena.
  if (!s.integralPool.empty()) {
    integrals_ = std::move(s.integralPool.back());
    s.integralPool.pop_back();
  }
  const std::size_t need = cornerRow * (static_cast<std::size_t>(height_) + 1);
  const std::size_t beforeCap = integrals_.capacity();
  if (need > beforeCap) {
    integrals_.reserve(need);
    ++s.stats.growths;
    s.stats.grownBytes += static_cast<std::int64_t>(
        (integrals_.capacity() - beforeCap) * sizeof(double));
  }
  integrals_.resize(need);
  std::fill_n(integrals_.data(), cornerRow, 0.0);
  for (int y = 1; y <= height_; ++y) {
    std::fill_n(integrals_.data() + y * cornerRow, kChannelCount, 0.0);
  }

  const bool wantEdge = channels_.enabled(Channel::kEdge);
  const bool wantContrast = channels_.enabled(Channel::kContrast);
  const bool wantSat = channels_.enabled(Channel::kSaturation);
  const bool wantSal = channels_.enabled(Channel::kSaliency);

  // Pass 1 reads the capture once. Per output row: decimate it (a box
  // filter; an empty capture decimates to white), then the row's float
  // luma (Sobel input), its horizontal 5-tap sums of integer luma (contrast
  // input; the luma plane always exists, since edge and contrast derive
  // from it even when the luma channel is off) and its share of the mean
  // colour. Integer sums are exact, so the 5-tap sums equal a sliding
  // window and the mean equals the decimated plane's meanColor().
  const std::size_t n = static_cast<std::size_t>(w) * height_;
  Color* pixels = s.ensure(s.pixels, n);
  float* lumaF = s.ensure(s.lumaF, n);
  std::int32_t* hsum = wantContrast ? s.ensure(s.hsum, n) : nullptr;
  std::int32_t* lumaIRow =
      wantContrast ? s.ensure(s.lumaIRow, static_cast<std::size_t>(w)) : nullptr;
  const bool exact2x = screenshot.width() == 2 * w &&
                       screenshot.height() == 2 * height_;
  static_assert(std::endian::native == std::endian::little);
  std::uint64_t sumR = 0, sumG = 0, sumB = 0;
  for (int y = 0; y < height_; ++y) {
    Color* px = pixels + static_cast<std::size_t>(y) * w;
    if (screenshot.empty()) {
      gfx::fillPixels({px, static_cast<std::size_t>(w)}, colors::kWhite);
    } else if (exact2x) {
      decimate2xRow(screenshot.row(2 * y).data(),
                    screenshot.row(2 * y + 1).data(), w, px);
    } else {
      decimateRow(screenshot, w, height_, y, px);
    }
    float* lf = lumaF + static_cast<std::size_t>(y) * w;
    for (int x = 0; x < w; ++x) lf[x] = static_cast<float>(luma(px[x]) / 255.0);
    // The row's r and b sums share one 64-bit word, 32 bits each; r, g
    // and b are the pixel word's low three bytes (little-endian, asserted
    // above).
    std::uint64_t rowRB = 0, rowG = 0;
    for (int x = 0; x < w; ++x) {
      std::uint32_t p;
      std::memcpy(&p, px + x, sizeof p);
      rowRB += (p & 0xffu) | (static_cast<std::uint64_t>(p & 0xff0000u) << 16);
      rowG += (p >> 8) & 0xffu;
    }
    sumR += rowRB & 0xffffffffu;
    sumG += rowG;
    sumB += rowRB >> 32;
    if (wantContrast) {
      for (int x = 0; x < w; ++x) lumaIRow[x] = intLuma(px[x]);
      fiveTapRow(lumaIRow, w, hsum + static_cast<std::size_t>(y) * w);
    }
  }
  const Color meanColor = Color::rgb(static_cast<std::uint8_t>(sumR / n),
                                     static_cast<std::uint8_t>(sumG / n),
                                     static_cast<std::uint8_t>(sumB / n));

  // The contrast window's vertical sums start at row 0 (rows above it
  // clamp to it) and slide down one row per output row below.
  std::int32_t* vsum = nullptr;
  if (wantContrast) {
    vsum = s.ensure(s.vsum, static_cast<std::size_t>(w));
    for (int x = 0; x < w; ++x) {
      std::int32_t v = 0;
      for (int dy = -2; dy <= 2; ++dy) {
        const int yy = std::clamp(dy, 0, height_ - 1);
        v += hsum[static_cast<std::size_t>(yy) * w + x];
      }
      vsum[x] = v;
    }
  }

  // Four value rows (luma's is its plane row) and the zero row.
  float* values = s.ensure(s.values, 5 * static_cast<std::size_t>(w));
  float* edge = values;
  float* contrast = values + w;
  float* sat = values + 2 * w;
  float* sal = values + 3 * w;
  float* zero = values + 4 * w;
  std::fill_n(zero, w, 0.0f);
  for (int y = 0; y < height_; ++y) {
    const float* lumaRow = lumaF + static_cast<std::size_t>(y) * w;
    // Step 1: the row's channel values. Disabled channels read the zero
    // row, so their integrals sum to +0.0 everywhere.
    if (wantEdge) {
      edgeRow(lumaF + static_cast<std::size_t>(std::max(y - 1, 0)) * w,
              lumaRow,
              lumaF + static_cast<std::size_t>(std::min(y + 1, height_ - 1)) * w,
              w, edge);
    }
    const Color* px = pixels + static_cast<std::size_t>(y) * w;
    if (wantContrast) {
      // |luma - mean(5x5)| = |25*luma - windowSum| / (25 * lumaScale),
      // exact integers until the final division (|diff| < 2^31).
      for (int x = 0; x < w; ++x) {
        const std::int32_t diff = 25 * intLuma(px[x]) - vsum[x];
        contrast[x] = static_cast<float>(
            static_cast<double>(diff < 0 ? -diff : diff) /
            (25.0 * kIntLumaScale));
      }
    }
    if (wantSat) {
      for (int x = 0; x < w; ++x) {
        const int mx = std::max(std::max(px[x].r, px[x].g), px[x].b);
        const int mn = std::min(std::min(px[x].r, px[x].g), px[x].b);
        sat[x] = static_cast<float>(mx - mn) / 255.0f;
      }
    }
    if (wantSal) {
      for (int x = 0; x < w; ++x) {
        const float dr = static_cast<float>(px[x].r - meanColor.r);
        const float dg = static_cast<float>(px[x].g - meanColor.g);
        const float db = static_cast<float>(px[x].b - meanColor.b);
        sal[x] = std::sqrt(dr * dr + dg * dg + db * db) / 442.0f;
      }
    }

    // Step 2: the five double running sums, each in x order as a separate
    // chain, into integral corner row y + 1.
    const float* v0 = channels_.enabled(Channel::kLuma) ? lumaRow : zero;
    const float* v1 = wantEdge ? edge : zero;
    const float* v2 = wantContrast ? contrast : zero;
    const float* v3 = wantSat ? sat : zero;
    const float* v4 = wantSal ? sal : zero;
    const double* above = integrals_.data() + y * cornerRow + kChannelCount;
    double* out = integrals_.data() + (y + 1) * cornerRow + kChannelCount;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0;
    for (int x = 0; x < w; ++x) {
      s0 += v0[x];
      s1 += v1[x];
      s2 += v2[x];
      s3 += v3[x];
      s4 += v4[x];
      out[0] = above[0] + s0;
      out[1] = above[1] + s1;
      out[2] = above[2] + s2;
      out[3] = above[3] + s3;
      out[4] = above[4] + s4;
      above += kChannelCount;
      out += kChannelCount;
    }

    // Slide the vertical window down one row: add the row entering the
    // window, drop the row leaving it (both clamped).
    if (wantContrast && y + 1 < height_) {
      const std::int32_t* add =
          hsum + static_cast<std::size_t>(std::clamp(y + 3, 0, height_ - 1)) * w;
      const std::int32_t* drop =
          hsum + static_cast<std::size_t>(std::clamp(y - 2, 0, height_ - 1)) * w;
      for (int x = 0; x < w; ++x) vsum[x] += add[x] - drop[x];
    }
  }

#ifdef __AVX__
  // Leave the 256-bit loops above with the upper YMM halves clean. GCC 12
  // inserts no vzeroupper before a call whose callee it knows, through
  // -fipa-ra, to preserve some SSE registers, yet treats the state after
  // that call as clean. boxMean's toCells and integralSum calls below are
  // such calls, so at -O3 this constructor returned with XINUSE bit 2 set
  // (0x2a6 against 0x2a2 before it; -fno-ipa-ra also cleared it), and
  // every legacy-SSE libm call after it paid a state transition. On the
  // 4-core AVX-512 host glibc's hypotf then took 160-280 ns a call instead
  // of 4-18 ns, and the 6,484 geometry blocks of a fresh thread's detect
  // plan 8.6-10.0 ms instead of 0.43-0.50 ms.
  // FeatureMapTest.ConstructorLeavesUpperYmmClean checks it.
  _mm256_zeroupper();
#endif

  // Map-constant context cues, cached once: per-channel global means and the
  // center-vs-surround luma difference. These are the exact values the
  // on-demand computations produced (same integral lookups and arithmetic);
  // the candidate descriptor reads them per grid position.
  const Rect all{0, 0, width_ * scale_, height_ * scale_};
  for (int c = 0; c < kChannelCount; ++c) {
    globalMeans_[static_cast<std::size_t>(c)] =
        boxMean(static_cast<Channel>(c), all);
  }
  const int fw = width_ * scale_;
  const int fh = height_ * scale_;
  const Rect center{fw / 4, fh / 4, fw / 2, fh / 2};
  const float centerMean = boxMean(Channel::kLuma, center);
  const float globalMeanL = globalMeans_[static_cast<int>(Channel::kLuma)];
  // global = (center*A_c + surround*A_s) / A; recover the surround mean.
  const double areaC = 0.25, areaS = 0.75;
  const double surround = (globalMeanL - centerMean * areaC) / areaS;
  centerSurround_ = static_cast<float>(centerMean - surround);
}

FeatureMap::~FeatureMap() {
  if (integrals_.capacity() == 0) return;
  FeatureScratch& s = featureScratch();
  constexpr std::size_t kMaxPooled = 8;
  if (s.integralPool.size() < kMaxPooled) {
    s.integralPool.push_back(std::move(integrals_));
  }
}

namespace {

/// The cells [first, first + count) that full-res pixels [pos, pos + len)
/// touch along one axis of a grid of `cells` cells at downscale `scale`:
/// FeatureMap::toCells, one axis at a time.
std::pair<int, int> cellSpan(int pos, int len, int scale, int cells) {
  const int first = std::clamp(pos / scale, 0, cells);
  const int end = std::clamp((pos + len + scale - 1) / scale, 0, cells);
  return {first, std::max(end - first, 0)};
}

}  // namespace

Rect FeatureMap::toCells(const Rect& fullResRect) const {
  const auto [x, w] =
      cellSpan(fullResRect.x, fullResRect.width, scale_, width_);
  const auto [y, h] =
      cellSpan(fullResRect.y, fullResRect.height, scale_, height_);
  return {x, y, w, h};
}

double FeatureMap::integralSum(int channel, const Rect& cells) const {
  if (cells.empty()) return 0.0;
  const double a = integralCorner(cells.x, cells.y)[channel];
  const double b = integralCorner(cells.right(), cells.y)[channel];
  const double c = integralCorner(cells.x, cells.bottom())[channel];
  const double d = integralCorner(cells.right(), cells.bottom())[channel];
  return d - b - c + a;
}

float FeatureMap::boxMean(Channel c, const Rect& fullResRect) const {
  const Rect cells = toCells(fullResRect);
  if (cells.empty()) return 0.0f;
  return static_cast<float>(integralSum(static_cast<int>(c), cells) /
                            static_cast<double>(cells.area()));
}

float FeatureMap::ringContrast(Channel c, const Rect& fullResRect) const {
  const int margin =
      std::max(std::min(fullResRect.width, fullResRect.height) / 2, 2) + 2;
  const Rect outer = fullResRect.inflated(margin);
  const Rect innerCells = toCells(fullResRect);
  const Rect outerCells = toCells(outer);
  if (innerCells.empty() || outerCells.empty()) return 0.0f;
  const double innerSum = integralSum(static_cast<int>(c), innerCells);
  const double outerSum = integralSum(static_cast<int>(c), outerCells);
  const double ringArea =
      static_cast<double>(outerCells.area()) - innerCells.area();
  if (ringArea <= 0.0) return 0.0f;
  const double innerMean = innerSum / static_cast<double>(innerCells.area());
  const double ringMean = (outerSum - innerSum) / ringArea;
  return static_cast<float>(innerMean - ringMean);
}

float FeatureMap::globalMean(Channel c) const {
  return globalMeans_[static_cast<std::size_t>(c)];
}

float FeatureMap::centerSurroundLuma() const { return centerSurround_; }

void candidateGeometryInto(Size fullSize, const Rect& box,
                           std::span<float> out) {
  float* f = out.data();
  int k = 0;
  const float W = static_cast<float>(fullSize.width);
  const float H = static_cast<float>(fullSize.height);
  const float w = static_cast<float>(box.width);
  const float h = static_cast<float>(box.height);
  const float cx = static_cast<float>(box.x) + w / 2;
  const float cy = static_cast<float>(box.y) + h / 2;
  f[k++] = w / W;
  f[k++] = h / H;
  f[k++] = (w * h) / (W * H);
  f[k++] = std::clamp(std::log(w / std::max(h, 1.0f)), -2.0f, 2.0f);
  f[k++] = cx / W;
  f[k++] = cy / H;
  // Distance to the nearest screen corner, normalized by the half-diagonal.
  const float dCorner = std::min(
      {std::hypot(cx, cy), std::hypot(W - cx, cy), std::hypot(cx, H - cy),
       std::hypot(W - cx, H - cy)});
  const float halfDiag = std::hypot(W, H) / 2.0f;
  f[k++] = dCorner / halfDiag;
  // Distance to the screen center.
  f[k++] = std::hypot(cx - W / 2, cy - H / 2) / halfDiag;
}

DescriptorAxis planDescriptorAxis(const FeatureMap& map, int pos, int len,
                                  int minSide, bool vertical) {
  const int ring = std::max(minSide / 2, 2) + 2;
  const int shrink = std::max(2, minSide / 4);
  // The left/right neighbours step one box length along x only, the up/down
  // neighbours along y only.
  const int sideStep = vertical ? 0 : len;
  const int upDownStep = vertical ? len : 0;
  const std::array<std::pair<int, int>, kDescriptorRects> extents = {{
      {pos, len},                            // the box
      {pos - ring, len + 2 * ring},          // ring outer: inflated(ring)
      {pos - 2, len + 4},                    // border: inflated(2)
      {pos + shrink, len - 2 * shrink},      // inflated(-shrink)
      {pos - sideStep, len},                 // left neighbour
      {pos + sideStep, len},                 // right neighbour
      {pos - upDownStep, len},               // up neighbour
      {pos + upDownStep, len},               // down neighbour
  }};
  const int cells = vertical ? map.height() : map.width();
  DescriptorAxis axis;
  for (int i = 0; i < kDescriptorRects; ++i) {
    std::tie(axis.first[i], axis.count[i]) =
        cellSpan(extents[i].first, extents[i].second, map.scale(), cells);
  }
  return axis;
}

void candidateFeaturesFromPlan(const FeatureMap& map, const DescriptorAxis& x,
                               const DescriptorAxis& y,
                               std::span<const float> geometry,
                               std::span<float> out) {
  // Planned rect i: its area in cells (0 when empty) and its four integral
  // corners, each serving all five channels. Sums and means use the
  // arithmetic of FeatureMap::integralSum and boxMean.
  struct Cells {
    std::int64_t area = 0;
    const double* tl = nullptr;
    const double* tr = nullptr;
    const double* bl = nullptr;
    const double* br = nullptr;
  };
  auto cells = [&](int i) {
    Cells r;
    r.area = static_cast<std::int64_t>(x.count[i]) * y.count[i];
    if (r.area == 0) return r;
    const int x1 = x.first[i] + x.count[i];
    const int y1 = y.first[i] + y.count[i];
    r.tl = map.integralCorner(x.first[i], y.first[i]);
    r.tr = map.integralCorner(x1, y.first[i]);
    r.bl = map.integralCorner(x.first[i], y1);
    r.br = map.integralCorner(x1, y1);
    return r;
  };
  auto sum = [](const Cells& r, int c) {
    return r.br[c] - r.tr[c] - r.bl[c] + r.tl[c];
  };
  auto mean = [&](const Cells& r, Channel c) {
    if (r.area == 0) return 0.0f;
    return static_cast<float>(sum(r, static_cast<int>(c)) /
                              static_cast<double>(r.area));
  };

  float* f = out.data();
  int k = 0;
  // Per channel: box mean, and box mean minus ring mean.
  const Cells inner = cells(0);
  const Cells outer = cells(1);
  const double innerArea = static_cast<double>(inner.area);
  const double ringArea = static_cast<double>(outer.area) - inner.area;
  for (int c = 0; c < kChannelCount; ++c) {
    double innerSum = 0.0;
    if (inner.area != 0) {
      innerSum = sum(inner, c);
      f[k++] = static_cast<float>(innerSum / innerArea);
    } else {
      f[k++] = 0.0f;
    }
    if (inner.area != 0 && outer.area != 0 && ringArea > 0.0) {
      const double outerSum = sum(outer, c);
      const double innerMean = innerSum / innerArea;
      const double ringMean = (outerSum - innerSum) / ringArea;
      f[k++] = static_cast<float>(innerMean - ringMean);
    } else {
      f[k++] = 0.0f;
    }
  }
  for (int g = 0; g < kCandidateGeometryDim; ++g) f[k++] = geometry[g];
  // Global context: overall darkness (scrim cue), edge business, and the
  // center-vs-surround luma difference (modal panel cue).
  f[k++] = map.globalMean(Channel::kLuma);
  f[k++] = map.globalMean(Channel::kEdge);
  f[k++] = map.centerSurroundLuma();
  // Border edge density: edges concentrated on the candidate's perimeter.
  f[k++] = mean(cells(2), Channel::kEdge) - mean(cells(3), Channel::kEdge);
  // Edge continuation: an isolated option has quiet neighbors on both sides
  // of each axis, while a panel border continues across them. min() over the
  // opposite pair is high only when the structure runs through.
  f[k++] = std::min(mean(cells(4), Channel::kContrast),
                    mean(cells(5), Channel::kContrast));
  f[k++] = std::min(mean(cells(6), Channel::kContrast),
                    mean(cells(7), Channel::kContrast));
}

void candidateFeaturesPlannedInto(const FeatureMap& map, const Rect& box,
                                  std::span<const float> geometry,
                                  std::span<float> out) {
  const int minSide = std::min(box.width, box.height);
  candidateFeaturesFromPlan(
      map, planDescriptorAxis(map, box.x, box.width, minSide, false),
      planDescriptorAxis(map, box.y, box.height, minSide, true), geometry,
      out);
}

void candidateFeaturesInto(const FeatureMap& map, const Rect& box,
                           std::span<float> out) {
  std::array<float, kCandidateGeometryDim> geometry;
  candidateGeometryInto(map.fullSize(), box, geometry);
  candidateFeaturesPlannedInto(map, box, geometry, out);
}

}  // namespace darpa::cv
