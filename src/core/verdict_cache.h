// VerdictCache — the screen-fingerprint verdict cache, a bounded LRU.
//
// Before any Fig.-5 step runs, DarpaService::analyzeNow() fingerprints the
// top window by walking its live view tree (a 64-bit hash over node
// geometry/style, with no UI dump built — DARPA's own overlays are not in
// the app window) and looks the key up here. A re-stabilized
// identical screen (app switch back, dialog re-show, taps that changed
// nothing) skips lint, screenshot AND CV: the cached verdict goes straight
// to the act step, which is the dominant modeled-CPU win on repeat-screen
// workloads. Trusted-package screens never reach the probe, so the cache
// cannot serve them either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cv/detector.h"
#include "util/thread_annotations.h"

namespace darpa::core {

/// Bounded LRU of screen-fingerprint -> verdict. find() refreshes recency;
/// put() evicts the least recently used entry beyond capacity.
///
/// The entries sit in one flat vector that grows on demand up to
/// `capacity`; every find hit and every put stamps its slot from a
/// per-cache counter, so the slot with the smallest stamp is always the
/// least recently used one. A linear scan is the whole index: a session
/// holds a few dozen screens at most, and the fleet tier a few hundred.
///
/// No lock here. As the L1 it is session-confined, like the service that
/// owns it (CONFINED_TO below): one cache per DeviceSession, touched only
/// by the thread advancing that session. The fleet-wide SharedVerdictTier
/// (verdict_tier.h) is one more VerdictCache, held behind the tier's lock:
/// the L2, probed on L1 miss and refilled into L1 by promotion.
class VerdictCache {
 public:
  struct Entry {
    bool isAui = false;
    std::vector<cv::Detection> detections;
  };

  explicit VerdictCache(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] bool enabled() const { return capacity_ > 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] std::int64_t evictions() const { return evictions_; }

  /// Cached entry for `key`, refreshed to most-recently-used; nullptr on
  /// miss. The pointer is valid until the next put().
  [[nodiscard]] const Entry* find(std::uint64_t key);
  /// Stores `entry`, replacing a resident `key` in place; a capacity-0
  /// cache stores nothing.
  void put(std::uint64_t key, Entry entry);

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t lastUse = 0;  ///< Stamp of the latest find hit or put.
    Entry entry;
  };

  std::size_t capacity_;
  std::vector<Slot> slots_ CONFINED_TO("owning session");
  std::uint64_t useClock_ CONFINED_TO("owning session") = 0;
  std::int64_t evictions_ CONFINED_TO("owning session") = 0;
};

}  // namespace darpa::core
