#include "core/security.h"

#include <utility>

namespace darpa::core {

ScreenshotVault::~ScreenshotVault() { rinse(); }

void ScreenshotVault::store(gfx::Bitmap capture) {
  rinse();
  held_ = std::move(capture);
  ++stored_;
  peakHeld_ = peakHeld_ < 1 ? 1 : peakHeld_;
}

void ScreenshotVault::rinse() {
  if (!holding()) return;
  // §IV-E: scrub the privacy-sensitive capture before its buffer is freed.
  // The buffer reaches operator delete right after the fill, so an inlined
  // fill would be a dead store the optimizer may drop; Bitmap::fill is out
  // of line in gfx/bitmap.cpp and the build has no LTO, so the call and its
  // stores stay.
  held_.fill(colors::kBlack);
  held_ = gfx::Bitmap();
  ++rinsed_;
}

}  // namespace darpa::core
