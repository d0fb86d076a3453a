// Screenshot custody — the §IV-E security design.
//
// DARPA handles privacy-sensitive screenshots, so the paper stores them only
// in app-internal storage and "rinses them immediately after running the
// CV-model". ScreenshotVault enforces that discipline by construction: at
// most one screen frame is ever held, it lives in internal storage only,
// and releasing it (rinse/take) hands the frame to its scrubbing destructor
// — ScreenFrame overwrites the pixel buffer with black the moment the last
// holder lets go, before the buffer is freed.
// Stats let tests (and the security unit tests) assert the invariant held
// for a whole session.
#pragma once

#include <cstdint>
#include <utility>

#include "core/screen_frame.h"

namespace darpa::core {

class ScreenshotVault {
 public:
  /// Takes custody of a captured frame (which must carry pixels). Enforces
  /// the single-screenshot invariant: any previously held frame is rinsed
  /// first.
  void store(FramePtr frame);

  /// Read access while held (null after rinse).
  [[nodiscard]] const ScreenFrame* current() const { return held_.get(); }
  [[nodiscard]] bool holding() const { return held_ != nullptr; }

  /// Releases the held frame; its destructor scrubs the pixel buffer when
  /// the last reference drops (scrub-on-last-release).
  void rinse();

  /// Transfers custody of the held frame to the caller — analyzeNow()'s
  /// detect step, which drops its reference right after the model ran.
  /// Counts as a rinse for the audit invariant (the vault holds nothing
  /// afterwards); returns null when not holding.
  [[nodiscard]] FramePtr take();

  // --- audit counters -------------------------------------------------------
  [[nodiscard]] std::int64_t stored() const { return stored_; }
  [[nodiscard]] std::int64_t rinsed() const { return rinsed_; }
  /// Max screenshots alive at once — must always be 1.
  [[nodiscard]] int peakHeld() const { return peakHeld_; }

 private:
  FramePtr held_;
  std::int64_t stored_ = 0;
  std::int64_t rinsed_ = 0;
  int peakHeld_ = 0;
};

/// The permission manifest of the DARPA app (§IV-E): it must not request
/// any capability that could exfiltrate screenshots. Kept as a value type
/// so tests can assert the shipped configuration is minimal.
struct PermissionManifest {
  bool internet = false;        ///< Never: no network exfiltration path.
  bool externalStorage = false; ///< Never: screenshots stay internal.
  bool accessibility = true;    ///< The one capability DARPA needs.
  bool selfUpdate = false;      ///< Updates only via store review + OTA.

  [[nodiscard]] bool minimal() const {
    return !internet && !externalStorage && accessibility && !selfUpdate;
  }
};

}  // namespace darpa::core
