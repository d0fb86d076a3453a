// Work-stealing scheduler tests: the hard contract is that the fleet's
// merged paper digests (fig8 counts, Table III stats, ledger totals, Table
// VII metrics) are BYTE-identical to the W=1 serial reference — across
// worker counts, reruns, and a deliberately skewed workload that forces
// steals. Plus the scheduler's bookkeeping and the fleet's single-use /
// bounds guards.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "perf/device_model.h"

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

/// The paper-facing output digest, fixed-point formatted so comparisons are
/// exact string equality, not epsilon tolerance. Same axes as the
/// bench_fleet_throughput digest.
std::string digestOf(const FleetSnapshot& snap) {
  const perf::DeviceModel device;
  const Millis window{static_cast<std::int64_t>(snap.sessions) *
                      snap.simTime.count};
  const perf::PerfMetrics perf = device.withWork(snap.ledger, window);

  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "fig8: analyses=%lld events=%lld exposures=%lld covered=%lld\n"
      "stats: shots=%lld flagged=%lld decorated=%lld bypass=%lld lint=%lld "
      "lintskip=%lld cachehits=%lld anchors=%lld\n"
      "ledger: cpuMs=%.6f cacheHits=%lld cacheMisses=%lld "
      "peakFrameBytes=%lld\n"
      "table7: cpu=%.4f mem=%.4f fps=%.4f power=%.4f\n",
      static_cast<long long>(snap.ledger.analyses()),
      static_cast<long long>(snap.eventsEmitted),
      static_cast<long long>(snap.auiExposures),
      static_cast<long long>(snap.auisCovered),
      static_cast<long long>(snap.stats.screenshotsTaken),
      static_cast<long long>(snap.stats.auisFlagged),
      static_cast<long long>(snap.stats.decorationsDrawn),
      static_cast<long long>(snap.stats.bypassClicks),
      static_cast<long long>(snap.stats.lintRuns),
      static_cast<long long>(snap.stats.cvSkippedByLint),
      static_cast<long long>(snap.stats.verdictCacheHits),
      static_cast<long long>(snap.stats.anchorMeasurements),
      snap.ledger.totalCpuMs(), static_cast<long long>(snap.ledger.cacheHits()),
      static_cast<long long>(snap.ledger.cacheMisses()),
      static_cast<long long>(snap.ledger.peakFrameBytes()), perf.cpuPercent,
      perf.memoryMb, perf.frameRate, perf.powerMw);
  return buf;
}

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
  config.epoch = ms(500);
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
  // Rerun at W=4: steal interleavings differ, the digest must not.
  EXPECT_EQ(runFleet(64, 4).digest, serial.digest);
}

// Scheduler bookkeeping on a small fleet: every slice was popped from
// exactly one queue, each session ran exactly duration/epoch slices, the
// single worker never steals, and every session retired once with a
// positive finish time.
TEST(FleetSchedulerTest, SliceBookkeepingIsExact) {
  constexpr int kSessions = 8;
  constexpr std::int64_t kSlicesPerSession = 3000 / 500;
  const RunOutcome serial = runFleet(kSessions, 1);
  const RunOutcome four = runFleet(kSessions, 4);
  EXPECT_EQ(four.digest, serial.digest);

  EXPECT_EQ(serial.scheduler.steals, 0);
  for (const RunOutcome* run : {&serial, &four}) {
    const SchedulerMetrics& metrics = run->scheduler;
    EXPECT_EQ(metrics.slicesRun, kSessions * kSlicesPerSession);
    EXPECT_EQ(metrics.localPops + metrics.steals, metrics.slicesRun)
        << "every slice was popped from exactly one queue";
    ASSERT_EQ(metrics.finishWallMs.size(),
              static_cast<std::size_t>(kSessions));
    for (const double msToFinish : metrics.finishWallMs) {
      EXPECT_GT(msToFinish, 0.0);
    }
  }
}

// --------------------------------------------------- steal-heavy skew

TEST(FleetSchedulerTest, SkewedWorkloadStealsAndMatchesSerial) {
  // Session 0 is a deliberate straggler: a hyperactive monkey makes its
  // slices far more expensive than everyone else's, so its home worker
  // stays pinned while the siblings drain — and then rob — its shard.
  const auto straggler = [](int id, DeviceSession::Config& config) {
    if (id == 0) {
      config.monkeyMinGapMs = 10;
      config.monkeyMaxGapMs = 25;
    }
  };
  const RunOutcome serial = runFleet(16, 1, straggler);
  const RunOutcome ws = runFleet(16, 4, straggler);
  EXPECT_EQ(ws.digest, serial.digest)
      << "steal interleavings must never reach the digest";
  EXPECT_GT(ws.scheduler.steals, 0)
      << "a pinned home worker should have its queue drained by siblings";
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
