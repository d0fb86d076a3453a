// SharedVerdictTier — the fleet-wide L2 behind every session's verdict
// cache.
//
// DARPA's §IV verdict cache amortizes perception cost within one device; at
// fleet scale the same popular screens recur across sessions, so every one
// of N sessions re-learns identical fingerprints. This tier makes the
// learning fleet-wide: a two-tier hierarchy where the per-session
// VerdictCache (core/verdict_cache.h) stays the unchanged, lock-free L1 and
// this table is the shared L2.
//
//   probe:   L1 find -> (miss) -> L2 find -> (hit) promote into L1
//   publish: the verdict step stores evidence-backed verdicts in L1 AND L2
//
// Concurrency: readers take no lock. find() loads the current table with an
// acquire load, probes it linearly from the key's home slot with acquire
// loads of each slot's record pointer, and copies the matching record out.
// A record is immutable once published (apart from its referenced bit,
// below), and a slot's key is written once, before its record pointer is
// first stored, so a reader that sees a record sees a whole one. On a
// steady-state hit find() writes no shared cache line: its hit/miss counts
// go to this thread's padded stripe.
//
// Writers serialize on one util::Mutex, the runtime's only lock, taken by
// publish() and stats() and never by find(). Nothing is called out to while
// it is held. Reads outnumber writes about 1,000:1 in the fleet-shared
// workload (DESIGN.md §14.2).
//
// Eviction: CLOCK (second chance) over the table's slots. Every record
// carries a referenced bit. A first publish of a key starts unreferenced; a
// find hit sets the bit (a relaxed store, made only when the bit is clear)
// and so does re-publishing a resident key, which also replaces its value.
// When a first publish finds `capacity` live records, the clock hand,
// which only the lock holder moves, sweeps the slots in table order from
// where it last stopped: it clears each set bit it passes and evicts the
// first live record whose bit is already clear. A hit therefore protects
// its record from the next eviction, and the live record count never
// exceeds `capacity`.
//
// The table: a power-of-two array of at least 2 x capacity slots, each a key
// and an atomic record pointer, with linear probing. A slot is empty (no
// record yet), live, or a tombstone (its key was evicted); slots never go
// back to empty, so a probe chain never breaks under a reader. A key keeps
// its one slot across evictions and re-publishes. When a new key would fill
// three quarters of the slots, the publisher builds a fresh table of the
// live records and swaps the table pointer in (release); readers still in
// the old table see a consistent, slightly older state.
//
// Reclamation and the memory bound: a replaced or evicted record, and an
// outgrown table, is freed only when the tier is destroyed, since a reader
// may still be copying it out and the tier keeps no reader registry. A
// Fleet runs once and owns its tier for exactly that run, so the tier holds
// every record it ever published: memory is O(capacity + publishes) records
// plus at most one 2 x capacity slot table per capacity / 2 first publishes
// (about 120 publishes of a few hundred bytes each in a fleet-shared run).
// A long-lived tier that publishes without bound would need a reader
// registry (epochs or hazard pointers) to free them earlier.
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

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

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

  /// `capacity` bounds the live records; 0 disables the tier (find always
  /// misses and counts nothing, publish stores nothing) without unwiring it.
  explicit SharedVerdictTier(std::size_t capacity = 512);
  ~SharedVerdictTier();
  SharedVerdictTier(const SharedVerdictTier&) = delete;
  SharedVerdictTier& operator=(const SharedVerdictTier&) = delete;

  /// Copy-out lookup, lock-free: the record is copied into the result, so
  /// the caller holds nothing of the tier's. A hit marks the record
  /// referenced. Counts a hit or miss.
  [[nodiscard]] std::optional<VerdictCache::Entry> find(
      std::uint64_t fingerprint);

  /// Stores `record`; re-publishing a resident fingerprint replaces its
  /// value and marks it referenced.
  void publish(std::uint64_t fingerprint, VerdictCache::Entry record)
      EXCLUDES(mutex_);

  [[nodiscard]] Stats stats() const EXCLUDES(mutex_);

 private:
  struct Record;
  struct Table;
  /// One thread's hit and miss counts, on a cache line of its own.
  struct alignas(64) Stripe {
    std::atomic<std::int64_t> hits{0};
    std::atomic<std::int64_t> misses{0};
  };
  static constexpr std::size_t kStripes = 16;

  // Read by every find(): the current table, null when the tier is off.
  alignas(64) std::atomic<const Table*> table_{nullptr};
  std::array<Stripe, kStripes> stripes_;

  alignas(64) mutable util::Mutex mutex_{"core.SharedVerdictTier"};
  const std::size_t capacity_;
  /// Every table and record the tier has made, the current table last;
  /// all are freed by the destructor (see the memory bound above).
  std::vector<std::unique_ptr<Table>> tables_ GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<Record>> records_ GUARDED_BY(mutex_);
  std::size_t hand_ GUARDED_BY(mutex_) = 0;  ///< The clock hand's slot.
  std::size_t used_ GUARDED_BY(mutex_) = 0;  ///< Non-empty slots.
  std::int64_t live_ GUARDED_BY(mutex_) = 0;
  std::int64_t publishes_ GUARDED_BY(mutex_) = 0;
  std::int64_t evictions_ GUARDED_BY(mutex_) = 0;
};

}  // namespace darpa::core
