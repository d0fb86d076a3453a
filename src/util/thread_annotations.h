// Clang Thread Safety Analysis annotations for the fleet runtime.
//
// The fleet's determinism contract is enforced on two axes: TSan catches
// races in the interleavings the tests happen to run, and these
// annotations let Clang's -Wthread-safety pass prove at COMPILE TIME that
// every access to a mutex-protected structure holds the right lock — in
// every interleaving, including the ones no test exercises. The fleet-wide
// shared verdict tier is the runtime's one locked structure; the fleet
// driver shares only an atomic session counter, and everything else is
// confined to one session's worker.
//
// Usage conventions (see DESIGN.md §12):
//  * Every mutex member is a util::Mutex (util/mutex.h) — a
//    CAPABILITY-annotated std::mutex that aborts when its holder re-locks
//    it or a thread that does not hold it unlocks it.
//  * Every field a mutex protects carries GUARDED_BY(mutex_). detlint
//    (tools/detlint) rejects a std::mutex/Mutex member whose file has
//    no GUARDED_BY referencing it.
//  * Public methods that take the lock themselves carry EXCLUDES(mutex_).
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

/// Function acquires / releases the given capabilities.
#define ACQUIRE(...) DARPA_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define RELEASE(...) DARPA_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function must NOT be called with the given capabilities held (guards
/// against self-deadlock on non-reentrant mutexes).
#define EXCLUDES(...) DARPA_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Documentation-only marker (expands to nothing on every compiler) for
/// state that is protected by OWNERSHIP rather than a lock: session-confined
/// counters merged after the fleet run (WorkLedger, DarpaStats), the
/// Looper's single-threaded task list. The string names the confining
/// owner / phase. Greppable contract, zero codegen.
#define CONFINED_TO(owner)
