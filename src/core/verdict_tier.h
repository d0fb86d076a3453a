// SharedVerdictTier — the fleet-wide L2 behind every session's verdict
// cache.
//
// DARPA's §IV verdict cache amortizes perception cost within one device; at
// fleet scale the same popular screens recur across sessions, so every one
// of N sessions re-learns identical fingerprints. This tier makes the
// learning fleet-wide: a two-tier hierarchy where the per-session
// VerdictCache (core/verdict_cache.h) stays the unchanged, lock-free L1 and
// one more VerdictCache behind one lock is the shared L2.
//
//   probe:   L1 find -> (miss) -> L2 find -> (hit) promote into L1
//   publish: the verdict step stores evidence-backed verdicts in L1 AND L2
//
// Concurrency: one util::Mutex, the runtime's only lock. Sessions probe and
// publish from inside an analysis, holding no other lock, and nothing is
// called out to while the tier lock is held. Striping the LRU by
// fingerprint, one lock per worker, measured no better (DESIGN.md §14.2).
//
// Seeding rule: the verdict step publishes only verdicts that rest on real
// evidence (a confident lint resolution or a usable capture), the same rule
// that guards its L1 put, so a session whose screenshot failed never
// poisons the fleet with its evidence-free verdict.
//
// Concurrent misses are not deduplicated: two sessions that miss on the
// same fingerprint at once both run the detector, and the later publish
// refreshes the record. Sessions never block on each other here.
//
// Determinism: with no tier wired (the default), no code path changes and
// all fleet digests stay byte-identical to the tier-less build. With a
// tier, per-session *verdicts* are unchanged — fingerprints determine
// verdicts, and only evidence-backed verdicts are published — but WHO
// pays for a detect depends on cross-session timing, so tier runs trade
// digest byte-equality for verdict equivalence (SharedVerdictTierTest
// holds both contracts). Tier stats are observability and must never feed
// a digest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "core/verdict_cache.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace darpa::core {

class SharedVerdictTier {
 public:
  /// Counters at the call. Observability only: hit/miss totals depend on
  /// cross-session timing, so nothing digest-stable may consume them.
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t publishes = 0;  ///< Stored records.
    std::int64_t evictions = 0;
    std::int64_t entries = 0;    ///< Live records.
  };

  /// `capacity` bounds the LRU; 0 disables the tier (find always misses
  /// and counts nothing, publish stores nothing) without unwiring it.
  explicit SharedVerdictTier(std::size_t capacity = 512) : cache_(capacity) {}

  /// Copy-out lookup (the record is copied under the lock — a borrowed
  /// pointer could be evicted by another session the moment the lock
  /// drops). A hit refreshes recency. Counts a hit or miss.
  [[nodiscard]] std::optional<VerdictCache::Entry> find(
      std::uint64_t fingerprint) EXCLUDES(mutex_);

  /// Stores `record`; re-publishing an existing fingerprint refreshes value
  /// and recency.
  void publish(std::uint64_t fingerprint, VerdictCache::Entry record)
      EXCLUDES(mutex_);

  [[nodiscard]] Stats stats() const EXCLUDES(mutex_);

 private:
  mutable util::Mutex mutex_{"core.SharedVerdictTier"};
  VerdictCache cache_ GUARDED_BY(mutex_);
  std::int64_t hits_ GUARDED_BY(mutex_) = 0;
  std::int64_t misses_ GUARDED_BY(mutex_) = 0;
  std::int64_t publishes_ GUARDED_BY(mutex_) = 0;
};

}  // namespace darpa::core
