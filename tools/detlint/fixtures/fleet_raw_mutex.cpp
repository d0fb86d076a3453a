// Fixture: raw-mutex-in-fleet — fleet code (any path containing "fleet",
// like this file's name) must not declare raw std::mutex members: the
// lock-rank validator, which is the fleet's deadlock-freedom argument,
// only instruments RankedMutex, so a raw mutex is a blind spot where a
// rank inversion can hide. A raw mutex WITH a GUARDED_BY still fires —
// thread-safety analysis and rank validation are separate gates.
#include <mutex>
#include <vector>

#define GUARDED_BY(x)  // stand-in for util/thread_annotations.h
class RankedMutex;     // stand-in for util/lock_rank.h

namespace fixture {

class SneakyScheduler {
 private:
  // Unguarded AND unranked: both file-scope rules fire on this line.
  std::mutex queueMutex_;  // expect: mutex-missing-guarded-by // expect: raw-mutex-in-fleet
  std::vector<int> runQueue_;
};

class AnnotatedButUnranked {
 private:
  // GUARDED_BY satisfies -Wthread-safety, but the validator still cannot
  // see this lock's acquisitions: the fleet rule fires regardless.
  std::mutex stateMutex_;  // expect: raw-mutex-in-fleet
  std::vector<int> state_ GUARDED_BY(stateMutex_);
};

class Ranked {
 private:
  RankedMutex* control_ = nullptr;  // pointer, not a member mutex: clean
};

class AllowedBridge {
 private:
  // A condition_variable interop shim may genuinely need a std::mutex;
  // that escape hatch carries its audit trail:
  std::mutex cvMutex_;  // detlint: allow(raw-mutex-in-fleet,mutex-missing-guarded-by) cv interop shim
};

}  // namespace fixture
