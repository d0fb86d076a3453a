// Lock ranks — a global acquisition-order contract for every mutex in the
// runtime, validated at runtime.
//
// The runtime has one ranked lock today: the fleet-wide shared verdict
// tier's (core/verdict_tier.h), taken with no other ranked lock held. The
// fleet driver itself holds none (fleet/fleet.h). This module keeps any
// future nesting a checked contract instead of a convention, because
// nested locking deadlocks silently the first time two threads acquire the
// same pair in opposite orders:
//
//  * LockRank is the global rank table. A thread may only acquire a mutex
//    whose rank is STRICTLY GREATER than every rank it already holds —
//    acquisition order follows rank order, so a cycle (the deadlock
//    precondition) is impossible by construction, and a thread that takes
//    a lock it already holds aborts instead of hanging. Ranks are spaced
//    so future tiers slot between existing ones without renumbering.
//  * RankedMutex wraps std::mutex with a rank + a name, registers itself
//    in the process-wide LockRankRegistry, and (when rank checking is
//    compiled in) asserts the strictly-increasing rule on every lock().
//    It carries Clang thread-safety CAPABILITY annotations, so GUARDED_BY
//    fields and the -Wthread-safety lane work through it unchanged.
//  * LockGuard is the RAII holder (SCOPED_CAPABILITY); use it instead of
//    std::lock_guard so the static analysis sees the acquire/release pair
//    on every toolchain (libstdc++'s lock_guard is not annotated).
//
// Rank checking defaults ON in every build (DARPA_LOCK_RANK_CHECKS=1): the
// validator is two thread-local vector operations per lock/unlock on locks
// that sit at analysis frequency, never inside the detector's hot loops. A
// violation aborts with a "lock-rank" diagnostic naming both mutexes
// (death-tested in tests/lock_rank_test.cpp). Define
// DARPA_LOCK_RANK_CHECKS=0 to compile the wrapper down to a bare
// std::mutex.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "util/thread_annotations.h"

#ifndef DARPA_LOCK_RANK_CHECKS
#define DARPA_LOCK_RANK_CHECKS 1
#endif

namespace darpa::util {

/// The global lock-rank table, lowest rank acquired first. Gaps are
/// deliberate: a new lock tier slots between existing ranks without
/// renumbering. DESIGN.md §12 documents who holds what while acquiring
/// what.
enum class LockRank : int {
  /// The fleet-wide shared verdict tier's one lock
  /// (core::SharedVerdictTier; nothing is called out to under it).
  /// Sessions probe and publish from inside an analysis, where the fleet
  /// holds no lock, so it is taken with no other ranked lock held. The
  /// leaf rank: nothing is acquired under the tier lock.
  kVerdictTier = 400,
};

[[nodiscard]] const char* lockRankName(LockRank rank);

/// Process-wide registry of every live RankedMutex, keyed by rank. Lets
/// tests (and postmortems) assert the runtime's lock population carries
/// the ranks DESIGN.md documents, and catches two unrelated locks sharing
/// a rank by accident.
class LockRankRegistry {
 public:
  struct Entry {
    LockRank rank;
    const char* name;  ///< The mutex's debug name (static string).
    int live = 0;      ///< RankedMutexes currently constructed.
  };

  /// The singleton. Construction order safe: function-local static.
  [[nodiscard]] static LockRankRegistry& instance();

  /// Snapshot of the registered ranks, sorted ascending by rank then name.
  [[nodiscard]] std::vector<Entry> snapshot() const;

  /// Live mutexes registered under `rank` (0 when none).
  [[nodiscard]] int liveCount(LockRank rank) const;

 private:
  friend class RankedMutex;
  void add(LockRank rank, const char* name);
  void remove(LockRank rank, const char* name);

  // The registry's own lock is internal bookkeeping, not part of the
  // ranked world: it is only ever held across a vector scan in
  // add/remove/snapshot and never while any ranked lock is acquired.
  mutable std::mutex mutex_;  // detlint: allow(mutex-missing-guarded-by) — registry internals, see above
  std::vector<Entry> entries_;
};

/// Per-thread validator for the strictly-increasing acquisition rule.
/// RankedMutex calls these; tests may query the introspection helpers.
class RankValidator {
 public:
  /// Aborts with a "lock-rank" diagnostic when `rank` is not strictly
  /// greater than every rank the calling thread already holds.
  static void onAcquire(LockRank rank, const char* name);
  /// Removes the (topmost matching) held entry; aborts if not held.
  static void onRelease(LockRank rank, const char* name);

  /// Ranks currently held by the calling thread (introspection).
  [[nodiscard]] static int heldCount();
  /// Highest rank held, or -1 when none.
  [[nodiscard]] static int topRank();
};

/// std::mutex + rank + name. Lock/unlock validate rank order (when
/// DARPA_LOCK_RANK_CHECKS) and carry the thread-safety annotations that
/// make GUARDED_BY(mutex_) fields checkable by -Wthread-safety.
class CAPABILITY("mutex") RankedMutex {
 public:
  RankedMutex(LockRank rank, const char* name) : rank_(rank), name_(name) {
#if DARPA_LOCK_RANK_CHECKS
    LockRankRegistry::instance().add(rank_, name_);
#endif
  }
  ~RankedMutex() {
#if DARPA_LOCK_RANK_CHECKS
    LockRankRegistry::instance().remove(rank_, name_);
#endif
  }
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() ACQUIRE() {
#if DARPA_LOCK_RANK_CHECKS
    RankValidator::onAcquire(rank_, name_);
#endif
    impl_.lock();
  }

  void unlock() RELEASE() {
    impl_.unlock();
#if DARPA_LOCK_RANK_CHECKS
    RankValidator::onRelease(rank_, name_);
#endif
  }

  [[nodiscard]] LockRank rank() const { return rank_; }
  [[nodiscard]] const char* name() const { return name_; }

 private:
  LockRank rank_;
  const char* name_;
  std::mutex impl_;  // detlint: allow(mutex-missing-guarded-by) — the wrapper IS the guard
};

/// RAII lock holder for RankedMutex, visible to the thread-safety analysis
/// on every toolchain. Use this (not std::lock_guard) for ranked locks.
class SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(RankedMutex& mutex) ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~LockGuard() RELEASE() { mutex_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  RankedMutex& mutex_;
};

}  // namespace darpa::util
