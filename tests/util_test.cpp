// Unit tests for src/util: geometry, color math, RNG, clock.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "util/clock.h"
#include "util/color.h"
#include "util/geometry.h"
#include "util/rng.h"

namespace darpa {
namespace {

// ---------------------------------------------------------------- geometry
TEST(RectTest, BasicAccessors) {
  const Rect r{10, 20, 30, 40};
  EXPECT_EQ(r.left(), 10);
  EXPECT_EQ(r.top(), 20);
  EXPECT_EQ(r.right(), 40);
  EXPECT_EQ(r.bottom(), 60);
  EXPECT_EQ(r.area(), 1200);
  EXPECT_EQ(r.center(), (Point{25, 40}));
  EXPECT_FALSE(r.empty());
}

TEST(RectTest, EmptyRects) {
  EXPECT_TRUE((Rect{0, 0, 0, 10}).empty());
  EXPECT_TRUE((Rect{0, 0, 10, 0}).empty());
  EXPECT_TRUE((Rect{5, 5, -3, 10}).empty());
  EXPECT_FALSE((Rect{0, 0, 1, 1}).empty());
}

TEST(RectTest, ContainsPoint) {
  const Rect r{0, 0, 10, 10};
  EXPECT_TRUE(r.contains(Point{0, 0}));
  EXPECT_TRUE(r.contains(Point{9, 9}));
  EXPECT_FALSE(r.contains(Point{10, 9}));  // right edge is exclusive
  EXPECT_FALSE(r.contains(Point{-1, 5}));
}

TEST(RectTest, ContainsRect) {
  const Rect outer{0, 0, 100, 100};
  EXPECT_TRUE(outer.contains(Rect{10, 10, 20, 20}));
  EXPECT_TRUE(outer.contains(outer));
  EXPECT_FALSE(outer.contains(Rect{90, 90, 20, 20}));
  EXPECT_FALSE(outer.contains(Rect{10, 10, 0, 0}));  // empty is not contained
}

TEST(RectTest, IntersectOverlapping) {
  const Rect a{0, 0, 10, 10};
  const Rect b{5, 5, 10, 10};
  EXPECT_EQ(a.intersect(b), (Rect{5, 5, 5, 5}));
  EXPECT_EQ(b.intersect(a), (Rect{5, 5, 5, 5}));
}

TEST(RectTest, IntersectDisjointIsEmpty) {
  const Rect a{0, 0, 10, 10};
  const Rect b{20, 20, 5, 5};
  EXPECT_TRUE(a.intersect(b).empty());
}

TEST(RectTest, UniteAndTranslate) {
  const Rect a{0, 0, 10, 10};
  const Rect b{20, 5, 10, 10};
  EXPECT_EQ(a.unite(b), (Rect{0, 0, 30, 15}));
  EXPECT_EQ(a.unite(Rect{}), a);
  EXPECT_EQ(Rect{}.unite(b), b);
  EXPECT_EQ(a.translated(3, -2), (Rect{3, -2, 10, 10}));
  EXPECT_EQ(a.inflated(2), (Rect{-2, -2, 14, 14}));
}

TEST(IouTest, IdenticalRectsGiveOne) {
  const Rect r{5, 5, 20, 30};
  EXPECT_DOUBLE_EQ(iou(r, r), 1.0);
}

TEST(IouTest, DisjointRectsGiveZero) {
  EXPECT_DOUBLE_EQ(iou(Rect{0, 0, 5, 5}, Rect{10, 10, 5, 5}), 0.0);
}

TEST(IouTest, HalfOverlap) {
  // Two 10x10 rects sharing a 5x10 strip: IoU = 50 / 150 = 1/3.
  EXPECT_NEAR(iou(Rect{0, 0, 10, 10}, Rect{5, 0, 10, 10}), 1.0 / 3.0, 1e-12);
}

TEST(IouTest, FloatMatchesIntOnAlignedBoxes) {
  const Rect a{0, 0, 10, 10};
  const Rect b{5, 0, 10, 10};
  EXPECT_NEAR(iou(a, b), iou(RectF::fromRect(a), RectF::fromRect(b)), 1e-9);
}

TEST(RectFTest, RoundTripThroughRect) {
  const RectF rf{1.4f, 2.6f, 10.2f, 19.8f};
  EXPECT_EQ(rf.toRect(), (Rect{1, 3, 10, 20}));
}

TEST(GeometryTest, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

// ---------------------------------------------------------------- color
TEST(ColorTest, ArgbRoundTrip) {
  const Color c = Color::rgba(12, 34, 56, 78);
  EXPECT_EQ(Color::fromArgb(c.toArgb()), c);
}

TEST(ColorTest, BlendOpaqueSourceWins) {
  EXPECT_EQ(blend(colors::kWhite, colors::kRed), colors::kRed);
}

TEST(ColorTest, BlendTransparentSourceKeepsDst) {
  EXPECT_EQ(blend(colors::kBlue, colors::kTransparent), colors::kBlue);
}

TEST(ColorTest, BlendHalfAlphaIsBetween) {
  const Color out = blend(colors::kBlack, colors::kWhite.withAlpha(128));
  EXPECT_GT(out.r, 100);
  EXPECT_LT(out.r, 160);
}

TEST(ColorTest, ContrastRatioExtremes) {
  EXPECT_NEAR(contrastRatio(colors::kBlack, colors::kWhite), 21.0, 0.01);
  EXPECT_NEAR(contrastRatio(colors::kGray, colors::kGray), 1.0, 1e-9);
  // Symmetry.
  EXPECT_DOUBLE_EQ(contrastRatio(colors::kRed, colors::kWhite),
                   contrastRatio(colors::kWhite, colors::kRed));
}

TEST(ColorTest, LinearizeTableMatchesTheWcagExpression) {
  for (int channel = 0; channel < 256; ++channel) {
    const double c = channel / 255.0;
    const double expected =
        c <= 0.04045 ? c / 12.92 : std::pow((c + 0.055) / 1.055, 2.4);
    // Bit-identical, not near: every contrast decision reads these values.
    EXPECT_EQ(linearizeSrgb(static_cast<std::uint8_t>(channel)), expected)
        << "channel " << channel;
  }
}

TEST(ColorTest, HighContrastPicksOppositeExtreme) {
  EXPECT_EQ(highContrastAgainst(colors::kBlack), colors::kWhite);
  EXPECT_EQ(highContrastAgainst(colors::kWhite), colors::kBlack);
  // Mid-gray: both extremes are weak, accent color expected.
  EXPECT_EQ(highContrastAgainst(Color::rgb(119, 119, 119)), colors::kRed);
}

TEST(ColorTest, LerpEndpoints) {
  EXPECT_EQ(lerp(colors::kBlack, colors::kWhite, 0.0), colors::kBlack);
  EXPECT_EQ(lerp(colors::kBlack, colors::kWhite, 1.0), colors::kWhite);
}

// ---------------------------------------------------------------- rng
TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(9);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0, sumSq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sumSq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sumSq / kN, 1.0, 0.05);
}

TEST(RngTest, PickWeightedRespectsWeights) {
  Rng rng(13);
  const double weights[] = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) {
    ++counts[rng.pickWeighted(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 2);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(5);
  Rng childA = parent.fork();
  Rng childB = parent.fork();
  EXPECT_NE(childA.next(), childB.next());
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// ---------------------------------------------------------------- clock
TEST(SimClockTest, AdvanceMonotonic) {
  SimClock clock;
  EXPECT_EQ(clock.now().count, 0);
  clock.advance(ms(100));
  EXPECT_EQ(clock.now().count, 100);
  clock.advance(ms(-50));  // negative ignored
  EXPECT_EQ(clock.now().count, 100);
  clock.advanceTo(ms(80));  // backwards ignored
  EXPECT_EQ(clock.now().count, 100);
  clock.advanceTo(ms(250));
  EXPECT_EQ(clock.now().count, 250);
}

TEST(MillisTest, Arithmetic) {
  EXPECT_EQ((ms(100) + ms(50)).count, 150);
  EXPECT_EQ((ms(100) - ms(50)).count, 50);
  EXPECT_LT(ms(10), ms(20));
}

}  // namespace
}  // namespace darpa
