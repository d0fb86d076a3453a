// Screenshot custody — the §IV-E security design.
//
// DARPA handles privacy-sensitive screenshots, so the paper stores them only
// in app-internal storage and "rinses them immediately after running the
// CV-model". ScreenshotVault enforces that discipline by construction: it
// owns the one capture an analysis takes, holds at most one at a time, and
// every way a capture leaves it (rinse, the next store, the vault's own
// destruction) overwrites the pixel buffer with black before the buffer is
// freed. The detect step reads the capture in place and rinses it the
// moment the model returns.
// Stats let tests (and the security unit tests) assert the invariant held
// for a whole session.
#pragma once

#include <cstdint>

#include "gfx/bitmap.h"

namespace darpa::core {

class ScreenshotVault {
 public:
  ScreenshotVault() = default;
  /// Rinses a capture still held, so none reaches operator delete
  /// unscrubbed (a throwing detect, a service torn down mid-analysis).
  ~ScreenshotVault();
  ScreenshotVault(const ScreenshotVault&) = delete;
  ScreenshotVault& operator=(const ScreenshotVault&) = delete;

  /// Takes custody of a capture (which must carry pixels). Enforces the
  /// single-screenshot invariant: any previously held capture is rinsed
  /// first.
  void store(gfx::Bitmap capture);

  /// Read access while held (null after rinse).
  [[nodiscard]] const gfx::Bitmap* current() const {
    return holding() ? &held_ : nullptr;
  }
  [[nodiscard]] bool holding() const { return !held_.empty(); }

  /// Scrubs the held capture to black, then frees its buffer. No-op when
  /// not holding.
  void rinse();

  // --- audit counters -------------------------------------------------------
  [[nodiscard]] std::int64_t stored() const { return stored_; }
  [[nodiscard]] std::int64_t rinsed() const { return rinsed_; }
  /// Max screenshots alive at once — must always be 1.
  [[nodiscard]] int peakHeld() const { return peakHeld_; }

 private:
  gfx::Bitmap held_;
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
