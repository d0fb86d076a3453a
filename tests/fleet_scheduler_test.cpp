// Fleet driver tests: the hard contract is that the fleet's merged paper
// digests (fig8 counts, Table III stats, ledger totals, Table VII metrics)
// are BYTE-identical to the W=1 serial reference — across worker counts,
// reruns, a deliberately skewed workload and a fleet smaller than its
// worker count. Plus the per-session finish times and the fleet's
// single-use / bounds guards.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "fleet_digest.h"

namespace darpa::fleet {
namespace {

/// Deterministic, thread-safe detector: every screen yields one confident
/// UPO (so the verdict/act stages run), at a fixed modeled cost.
class StubDetector : public cv::Detector {
 public:
  std::vector<cv::Detection> detect(const gfx::Bitmap&) const override {
    ++calls_;
    return {cv::Detection{{10, 50, 60, 24}, dataset::BoxLabel::kUpo, 0.9f}};
  }
  double costMacsPerImage() const override { return 1.0e6; }

 private:
  mutable std::atomic<std::int64_t> calls_{0};
};

struct RunOutcome {
  std::string digest;
  SchedulerMetrics scheduler;
};

RunOutcome runFleet(
    int sessions, int workers,
    const std::function<void(int, DeviceSession::Config&)>& tweak = nullptr) {
  StubDetector detector;
  FleetConfig config;
  config.sessions = sessions;
  config.workers = workers;
  config.duration = ms(3000);
  config.sessionTweak = tweak;

  Fleet fleet(detector, config);
  fleet.run();
  return {digestOf(fleet.snapshot()), *fleet.schedulerMetrics()};
}

// ------------------------------------------------ serial-reference equality

TEST(FleetSchedulerTest, DigestsMatchSerialAcrossWorkersAndReruns) {
  const RunOutcome serial = runFleet(64, 1);
  ASSERT_FALSE(serial.digest.empty());

  EXPECT_EQ(runFleet(64, 4).digest, serial.digest);
  // Rerun at W=4: which worker claims which session differs, the digest
  // must not.
  EXPECT_EQ(runFleet(64, 4).digest, serial.digest);
}

// Session 0 is a deliberate straggler: a hyperactive monkey makes it far
// more expensive than everyone else, so one worker is still running it
// while the others drain the rest of the fleet.
TEST(FleetSchedulerTest, StragglerMatchesSerial) {
  const auto straggler = [](int id, DeviceSession::Config& config) {
    if (id == 0) {
      config.monkeyMinGapMs = 10;
      config.monkeyMaxGapMs = 25;
    }
  };
  const RunOutcome serial = runFleet(16, 1, straggler);
  EXPECT_EQ(runFleet(16, 4, straggler).digest, serial.digest)
      << "which worker runs the straggler must never reach the digest";
}

// Every session ran once to the horizon: one positive finish time per
// session id, at W=1 and W=4, and no session ever changed hands.
TEST(FleetSchedulerTest, EverySessionFinishesOnceWithoutSteals) {
  constexpr int kSessions = 8;
  for (const int workers : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "W=" << workers);
    const RunOutcome run = runFleet(kSessions, workers);
    EXPECT_EQ(run.scheduler.steals, 0);
    ASSERT_EQ(run.scheduler.finishWallMs.size(),
              static_cast<std::size_t>(kSessions));
    for (const double msToFinish : run.scheduler.finishWallMs) {
      EXPECT_GT(msToFinish, 0.0);
    }
  }
}

// Fewer sessions than workers: run() starts one thread per session, and
// the result is still the serial one.
TEST(FleetSchedulerTest, FewerSessionsThanWorkersMatchSerial) {
  const RunOutcome serial = runFleet(3, 1);
  const RunOutcome four = runFleet(3, 4);
  EXPECT_EQ(four.digest, serial.digest);
  ASSERT_EQ(four.scheduler.finishWallMs.size(), 3u);
  for (const double msToFinish : four.scheduler.finishWallMs) {
    EXPECT_GT(msToFinish, 0.0);
  }
}

// ------------------------------------------------------ fleet guards

TEST(FleetSchedulerTest, RunTwiceAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  StubDetector detector;
  FleetConfig config;
  config.sessions = 1;
  config.duration = ms(200);
  Fleet fleet(detector, config);
  fleet.run();
  EXPECT_DEATH(fleet.run(), "single-use");
}

TEST(FleetSchedulerTest, SessionIndexOutOfRangeAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  StubDetector detector;
  FleetConfig config;
  config.sessions = 2;
  config.duration = ms(200);
  Fleet fleet(detector, config);
  EXPECT_DEATH((void)fleet.session(2), "out of range");
  EXPECT_DEATH((void)fleet.session(-1), "out of range");
}

}  // namespace
}  // namespace darpa::fleet
