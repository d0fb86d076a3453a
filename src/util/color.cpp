#include "util/color.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace darpa {

std::ostream& operator<<(std::ostream& os, const Color& c) {
  return os << "Color{" << int{c.r} << "," << int{c.g} << "," << int{c.b}
            << "," << int{c.a} << "}";
}

double linearizeSrgb(std::uint8_t channel) {
  static const std::array<double, 256> kLinear = [] {
    std::array<double, 256> table{};
    for (std::size_t i = 0; i < table.size(); ++i) {
      const double c = static_cast<double>(i) / 255.0;
      table[i] =
          c <= 0.04045 ? c / 12.92 : std::pow((c + 0.055) / 1.055, 2.4);
    }
    return table;
  }();
  return kLinear[channel];
}

double relativeLuminance(Color c) {
  return 0.2126 * linearizeSrgb(c.r) + 0.7152 * linearizeSrgb(c.g) +
         0.0722 * linearizeSrgb(c.b);
}

double contrastRatio(Color a, Color b) {
  const double la = relativeLuminance(a);
  const double lb = relativeLuminance(b);
  const double lighter = std::max(la, lb);
  const double darker = std::min(la, lb);
  return (lighter + 0.05) / (darker + 0.05);
}

Color lerp(Color a, Color b, double t) {
  t = std::clamp(t, 0.0, 1.0);
  auto mix = [t](std::uint8_t x, std::uint8_t y) {
    return static_cast<std::uint8_t>(std::lround(x + (y - x) * t));
  };
  return {mix(a.r, b.r), mix(a.g, b.g), mix(a.b, b.b), mix(a.a, b.a)};
}

Color highContrastAgainst(Color background) {
  const double cWhite = contrastRatio(background, colors::kWhite);
  const double cBlack = contrastRatio(background, colors::kBlack);
  // Mid-gray backgrounds contrast poorly with both extremes; a saturated
  // accent reads better there than either black or white.
  if (std::max(cWhite, cBlack) < 5.0) return colors::kRed;
  return cWhite >= cBlack ? colors::kWhite : colors::kBlack;
}

}  // namespace darpa
