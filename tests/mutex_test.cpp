// util::Mutex owner-check tests: the runtime's one lock aborts, naming
// itself, when its holder locks it again (a std::mutex would hang) or a
// thread that does not hold it unlocks it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <thread>

#include "util/mutex.h"

namespace darpa::util {
namespace {

TEST(MutexDeathTest, RelockByTheHolderAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Mutex mutex("test.relock");
  EXPECT_DEATH(
      {
        // Without the check the second lock hangs; the alarm then kills
        // the child without the message, so the test fails instead.
        alarm(10);
        const LockGuard outer(mutex);
        const LockGuard inner(mutex);
      },
      "mutex \"test\\.relock\" re-locked by the thread that holds it");
}

TEST(MutexDeathTest, UnlockByANonHolderAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Mutex mutex("test.unlock");
  EXPECT_DEATH(
      {
        const LockGuard held(mutex);
        std::thread([&mutex] { mutex.unlock(); }).join();
      },
      "mutex \"test\\.unlock\" unlocked by a thread that does not hold it");
}

}  // namespace
}  // namespace darpa::util
