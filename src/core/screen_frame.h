// ScreenFrame — the immutable, refcounted screenshot of one analysis.
//
// A pass that captures a usable screenshot wraps its pixels in exactly one
// ScreenFrame, and every holder (the ScreenshotVault, the detect step)
// shares that frame through a FramePtr, with zero pixel copies. The frame
// carries pixels only: the verdict-cache key is the live fingerprint of
// the view tree (WindowManager::topWindowFingerprint), and the UI dump is
// built inside the lint step that reads it.
//
// Immutability protocol: the frame is complete when constructed; every
// holder sees it through FramePtr (shared_ptr<const ScreenFrame>) and only
// reads.
//
// §IV-E custody: the destructor scrubs the pixel buffer (overwrites with
// black) before the buffer is freed — the paper's "rinse immediately
// after running the CV-model" becomes scrub-on-last-release. No copy of
// the screenshot exists to outlive the scrub, by construction.
#pragma once

#include <memory>
#include <utility>

#include "gfx/bitmap.h"

namespace darpa::core {

class ScreenFrame {
 public:
  /// Takes ownership of a captured screenshot.
  explicit ScreenFrame(gfx::Bitmap pixels) : pixels_(std::move(pixels)) {}
  ~ScreenFrame();

  ScreenFrame(const ScreenFrame&) = delete;
  ScreenFrame& operator=(const ScreenFrame&) = delete;

  /// The captured screenshot. Const access only — frames are immutable.
  [[nodiscard]] const gfx::Bitmap& pixels() const { return pixels_; }

 private:
  gfx::Bitmap pixels_;
};

/// The sharing handle: everything downstream of capture reads, never writes.
using FramePtr = std::shared_ptr<const ScreenFrame>;

}  // namespace darpa::core
