#include "core/screen_frame.h"

namespace darpa::core {

// §IV-E: scrub the privacy-sensitive capture before its buffer is freed.
// Runs when the last FramePtr lets go, so no holder can observe pixels
// after the scrub. The buffer reaches operator delete right after the
// fill, so an inlined fill would be a dead store the optimizer may drop;
// Bitmap::fill is out of line in gfx/bitmap.cpp and the build has no LTO,
// so the call and its stores stay.
ScreenFrame::~ScreenFrame() {
  if (!pixels_.empty()) pixels_.fill(colors::kBlack);
}

}  // namespace darpa::core
