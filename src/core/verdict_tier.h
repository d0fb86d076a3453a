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
// Concurrency: one RankedMutex at LockRank::kVerdictTier, the leaf rank
// above the scheduler's control and run-queue ranks. Sessions probe and
// publish from inside a slice, holding no other ranked lock, and nothing
// is called out to while the tier lock is held. Striping the LRU by
// fingerprint, one lock per worker, measured no better (DESIGN.md §14.2).
//
// Poisoning guard: publish() mirrors L1's seeding rule — only verdicts
// resting on real evidence (a confident lint resolution or a usable
// capture) are admitted. A session whose screenshot failed must not poison
// the fleet with its evidence-free verdict; such publishes are counted and
// dropped.
//
// Concurrent misses are not deduplicated: two sessions that miss on the
// same fingerprint at once both run the detector, and the later publish
// refreshes the record. Sessions never block on each other here.
//
// Determinism: with no tier wired (the default), no code path changes and
// all fleet digests stay byte-identical to the tier-less build. With a
// tier, per-session *verdicts* are unchanged — fingerprints determine
// verdicts, the guard keeps unevidenced entries out — but WHO pays for a
// detect depends on cross-session timing, so tier runs trade digest
// byte-equality for verdict equivalence (SharedVerdictTierTest holds both
// contracts). Tier stats are observability and must never feed a digest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "core/verdict_cache.h"
#include "util/lock_rank.h"
#include "util/thread_annotations.h"

namespace darpa::core {

class SharedVerdictTier {
 public:
  /// What a published verdict rests on; the poisoning guard admits only
  /// evidence-backed records (kLint / kCapture), mirroring L1's seeding
  /// rule in the verdict step.
  enum class Evidence {
    kNone,     ///< Screenshot failed and lint was unconfident — rejected.
    kLint,     ///< Confident static-lint resolution.
    kCapture,  ///< A usable capture reached the detector.
  };

  /// Counters at the call. Observability only: hit/miss totals depend on
  /// cross-session timing, so nothing digest-stable may consume them.
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t publishes = 0;             ///< Admitted records.
    std::int64_t rejectedUnevidenced = 0;   ///< Poisoning-guard drops.
    std::int64_t evictions = 0;
    std::int64_t entries = 0;               ///< Live records.
  };

  /// `capacity` bounds the LRU; 0 disables the tier (find always misses,
  /// publish stores nothing) without unwiring it.
  explicit SharedVerdictTier(std::size_t capacity = 512) : cache_(capacity) {}

  [[nodiscard]] bool enabled() const;

  /// Copy-out lookup (the record is copied under the lock — a borrowed
  /// pointer could be evicted by another session the moment the lock
  /// drops). A hit refreshes recency. Counts a hit or miss.
  [[nodiscard]] std::optional<VerdictCache::Entry> find(
      std::uint64_t fingerprint);

  /// Admits `record` unless the poisoning guard rejects it (Evidence::
  /// kNone). Returns whether the record was stored; re-publishing an
  /// existing fingerprint refreshes value and recency.
  bool publish(std::uint64_t fingerprint, VerdictCache::Entry record,
               Evidence evidence);

  /// Drops every record (counters are kept; dropped records do not count
  /// as evictions).
  void clear();

  [[nodiscard]] Stats stats() const;

 private:
  mutable util::RankedMutex mutex_{util::LockRank::kVerdictTier,
                                   "core.SharedVerdictTier"};
  VerdictCache cache_ GUARDED_BY(mutex_);
  std::int64_t hits_ GUARDED_BY(mutex_) = 0;
  std::int64_t misses_ GUARDED_BY(mutex_) = 0;
  std::int64_t publishes_ GUARDED_BY(mutex_) = 0;
  std::int64_t rejected_ GUARDED_BY(mutex_) = 0;
};

}  // namespace darpa::core
