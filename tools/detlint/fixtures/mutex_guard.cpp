// Fixture: mutex-missing-guarded-by — a mutex member with no
// GUARDED_BY(<mutex>) in its file is invisible to -Wthread-safety: the
// analysis has nothing to check, so races in "protected" state compile
// clean. util::Mutex members obey the same rule.
#include <mutex>
#include <vector>

#define GUARDED_BY(x)  // stand-in for util/thread_annotations.h
namespace util {
class Mutex {         // stand-in for util/mutex.h
 public:
  explicit Mutex(const char*) {}
};
}  // namespace util

namespace fixture {

class Unguarded {
 private:
  // Distinct name from Guarded's mutex_ below: the rule is file-scoped by
  // mutex name, matching the one-mutex-per-file layout of the runtime.
  mutable std::mutex unguardedMutex_;  // expect: mutex-missing-guarded-by
  std::vector<int> queue_;  // which lock protects this? unchecked.
};

class Guarded {
 private:
  mutable std::mutex mutex_;
  std::vector<int> queue_ GUARDED_BY(mutex_);  // annotated: no finding
};

class UnguardedTier {
 private:
  mutable util::Mutex tierMutex_{"fixture.tier"};  // expect: mutex-missing-guarded-by
  std::vector<int> records_;
};

class GuardedTier {
 private:
  mutable util::Mutex guardedTierMutex_{"fixture.guarded"};
  std::vector<int> records_ GUARDED_BY(guardedTierMutex_);  // no finding
  util::Mutex* borrowed_ = nullptr;  // pointer, not a member mutex: no finding
};

class Allowed {
 private:
  // A mutex that genuinely guards nothing field-shaped (e.g. a wrapper's
  // own lock) documents itself out with a reasoned allow:
  mutable std::mutex barrier_;  // detlint: allow(mutex-missing-guarded-by) pure rendezvous
};

}  // namespace fixture
