// util::Mutex — a std::mutex that knows its holder, annotated for Clang's
// thread-safety analysis.
//
// The runtime's one lock is the fleet-wide shared verdict tier's
// (core/verdict_tier.h), and it is a leaf: nothing is called while it is
// held, so there is no acquisition order to check. Two misuses remain: a
// thread locking the mutex it already holds (a std::mutex then hangs, and
// TSan does not report a same-thread re-lock) and a thread unlocking a
// mutex it does not hold (undefined behaviour). Mutex stores its holder's
// thread id and aborts with its name on either, in every build.
//
// Mutex is a CAPABILITY and LockGuard a SCOPED_CAPABILITY, so GUARDED_BY
// fields and EXCLUDES methods are checked by the -Wthread-safety lane.
// libstdc++'s std::lock_guard carries no annotations; use LockGuard.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "util/thread_annotations.h"

namespace darpa::util {

class CAPABILITY("mutex") Mutex {
 public:
  /// `name` (a static string) is printed when the owner check fails.
  explicit Mutex(const char* name) : name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    // Only this thread ever stores its own id, so a relaxed load reads it
    // exactly when this thread holds the lock.
    if (owner_.load(std::memory_order_relaxed) == std::this_thread::get_id()) {
      ownerFault("re-locked by the thread that holds it");
    }
    impl_.lock();
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }

  void unlock() RELEASE() {
    if (owner_.load(std::memory_order_relaxed) != std::this_thread::get_id()) {
      ownerFault("unlocked by a thread that does not hold it");
    }
    owner_.store(std::thread::id(), std::memory_order_relaxed);
    impl_.unlock();
  }

 private:
  [[noreturn]] void ownerFault(const char* what) const {
    std::fprintf(stderr, "mutex \"%s\" %s\n", name_, what);
    std::abort();
  }

  const char* name_;
  std::mutex impl_;  // detlint: allow(mutex-missing-guarded-by) — the wrapper IS the guard
  std::atomic<std::thread::id> owner_{};
};

/// RAII holder for Mutex, visible to the thread-safety analysis.
class SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~LockGuard() RELEASE() { mutex_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace darpa::util
