// VerdictCache — the screen-fingerprint verdict cache, a bounded LRU.
//
// Before any Fig.-5 step runs, DarpaService::analyzeNow() fingerprints the
// top window's UI dump (64-bit hash over node geometry/style — DARPA's own
// overlays never enter the dump) and looks it up here. A re-stabilized
// identical screen (app switch back, dialog re-show, taps that changed
// nothing) skips lint, screenshot AND CV: the cached verdict goes straight
// to the act step, which is the dominant modeled-CPU win on repeat-screen
// workloads. Trusted-package screens never reach the probe, so the cache
// cannot serve them either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cv/detector.h"
#include "util/thread_annotations.h"

namespace darpa::core {

/// Bounded LRU of screen-fingerprint -> verdict. find() refreshes recency;
/// put() evicts the least recently used entry beyond capacity.
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
  [[nodiscard]] std::size_t size() const { return lru_.size(); }
  [[nodiscard]] std::int64_t evictions() const { return evictions_; }

  /// Cached entry for `key`, refreshed to most-recently-used; nullptr on
  /// miss. The pointer is valid until the next put()/clear().
  [[nodiscard]] const Entry* find(std::uint64_t key);
  void put(std::uint64_t key, Entry entry);
  void clear();

 private:
  using LruList = std::list<std::pair<std::uint64_t, Entry>>;
  std::size_t capacity_;
  LruList lru_ CONFINED_TO("owning session");  ///< Front = most recently used.
  /// Lookup index only (find/erase/assign) — never iterated, so its
  /// unordered order cannot leak into eviction order (the LRU list is the
  /// only ordering authority; detlint guards the no-iteration contract).
  std::unordered_map<std::uint64_t, LruList::iterator> index_
      CONFINED_TO("owning session");
  std::int64_t evictions_ CONFINED_TO("owning session") = 0;
};

}  // namespace darpa::core
