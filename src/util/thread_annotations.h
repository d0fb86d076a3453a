// Clang Thread Safety Analysis annotations for the fleet runtime.
//
// The fleet's determinism contract is enforced on two axes: TSan catches
// races in the interleavings the tests happen to run, and these
// annotations let Clang's -Wthread-safety pass prove at COMPILE TIME that
// every access to a mutex-protected structure holds the right lock — in
// every interleaving, including the ones no test exercises. The
// work-stealing scheduler and the fleet-wide shared verdict tier use
// fine-grained locking, which is exactly where TSan-only checking stops
// being enough.
//
// Usage conventions (see DESIGN.md §12):
//  * Every mutex member is a util::RankedMutex (util/lock_rank.h) — a
//    CAPABILITY-annotated std::mutex wrapper that also validates lock-rank
//    ordering at runtime.
//  * Every field a mutex protects carries GUARDED_BY(mutex_). detlint
//    (tools/detlint) rejects a std::mutex/RankedMutex member whose file has
//    no GUARDED_BY referencing it.
//  * Functions that assume the lock is already held carry REQUIRES(mutex_)
//    (and are conventionally named ...Locked()).
//  * Structures with NO mutex by design — session-confined state merged
//    only after the fleet run — mark their members CONFINED_TO("owner") so
//    the confinement rule is greppable where the data lives, not only in a
//    header comment.
//
// All macros expand to nothing on non-Clang compilers (the container's GCC
// lane compiles them away); the dedicated CI lane builds with clang++ and
// -DDARPA_THREAD_SAFETY=ON, which adds -Wthread-safety -Werror=thread-safety.
#pragma once

#if defined(__clang__)
#define DARPA_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define DARPA_THREAD_ANNOTATION__(x)  // no-op outside Clang
#endif

/// Marks a class as a lockable capability (mutexes, mutex wrappers).
#define CAPABILITY(x) DARPA_THREAD_ANNOTATION__(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define SCOPED_CAPABILITY DARPA_THREAD_ANNOTATION__(scoped_lockable)

/// Field is protected by the given mutex: every read/write must hold it.
#define GUARDED_BY(x) DARPA_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer field whose *pointee* is protected by the given mutex.
#define PT_GUARDED_BY(x) DARPA_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Declares lock-ordering edges checkable by the static analysis (the
/// runtime lock-rank validator enforces the same ordering dynamically).
#define ACQUIRED_BEFORE(...) DARPA_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) DARPA_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// Function requires the given capabilities to be held on entry (and does
/// not release them).
#define REQUIRES(...) DARPA_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  DARPA_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// Function acquires / releases the given capabilities.
#define ACQUIRE(...) DARPA_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  DARPA_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) DARPA_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  DARPA_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

/// Function attempts the acquisition; first arg is the success return value.
#define TRY_ACQUIRE(...) \
  DARPA_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called with the given capabilities held (guards
/// against self-deadlock on non-reentrant mutexes).
#define EXCLUDES(...) DARPA_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Function asserts (at runtime) that the capability is held.
#define ASSERT_CAPABILITY(x) DARPA_THREAD_ANNOTATION__(assert_capability(x))

/// Function returns a reference to the named capability.
#define RETURN_CAPABILITY(x) DARPA_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: function is deliberately outside the analysis.
#define NO_THREAD_SAFETY_ANALYSIS \
  DARPA_THREAD_ANNOTATION__(no_thread_safety_analysis)

/// Documentation-only marker (expands to nothing on every compiler) for
/// state that is protected by OWNERSHIP rather than a lock: session-confined
/// counters merged after the fleet run (WorkLedger, DarpaStats), the
/// Looper's single-threaded queues. The string names the confining owner /
/// phase. Greppable contract, zero codegen.
#define CONFINED_TO(owner)
