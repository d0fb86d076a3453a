#include "core/screen_frame.h"

#include <utility>

namespace darpa::core {

ScreenFrame::ScreenFrame(android::UiDump dump, std::string packageName)
    : dump_(std::move(dump)), package_(std::move(packageName)) {}

// §IV-E: scrub the privacy-sensitive capture before its buffer is freed.
// Runs when the last FramePtr lets go, so no holder can observe pixels
// after the scrub. The buffer reaches operator delete right after the
// fill, so an inlined fill would be a dead store the optimizer may drop;
// Bitmap::fill is out of line in gfx/bitmap.cpp and the build has no LTO,
// so the call and its stores stay.
ScreenFrame::~ScreenFrame() {
  if (!pixels_.empty()) pixels_.fill(colors::kBlack);
}

std::uint64_t ScreenFrame::fingerprint() const {
  if (!fingerprint_) {
    fingerprint_ =
        mixPackage(android::WindowManager::fingerprint(dump_), package_);
  }
  return *fingerprint_;
}

void ScreenFrame::attachPixels(gfx::Bitmap pixels) {
  pixels_ = std::move(pixels);
}

std::uint64_t ScreenFrame::mixPackage(std::uint64_t fp,
                                      const std::string& package) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : package) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return fp ^ (h | 1);  // |1 keeps the mix non-zero for the empty package.
}

}  // namespace darpa::core
