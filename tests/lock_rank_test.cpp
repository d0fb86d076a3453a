// Lock-rank validator tests: the strictly-increasing acquisition rule, its
// abort-on-violation contract (death tests), the registry's view of the
// runtime's lock population, and a W=4 fleet smoke run proving the
// verdict tier's lock is the only ranked lock alive and holds its rank
// under real concurrency.
#include <gtest/gtest.h>

#include "core/work_ledger.h"
#include "cv/detector.h"
#include "fleet/fleet.h"
#include "util/lock_rank.h"

namespace darpa::util {
namespace {

// The runtime ranks one lock (the verdict tier's), so the ordering rule is
// exercised on two lower ranks that exist only in these tests.
constexpr LockRank kTestLow = static_cast<LockRank>(100);
constexpr LockRank kTestMid = static_cast<LockRank>(200);

TEST(LockRankTest, IncreasingAcquisitionIsLegal) {
  RankedMutex queue(kTestMid, "test.queue");
  RankedMutex tier(LockRank::kVerdictTier, "test.tier");
  {
    const LockGuard outer(queue);
    EXPECT_EQ(RankValidator::topRank(), static_cast<int>(kTestMid));
    {
      const LockGuard inner(tier);  // higher rank under lower: fine
      EXPECT_EQ(RankValidator::heldCount(), 2);
      EXPECT_EQ(RankValidator::topRank(),
                static_cast<int>(LockRank::kVerdictTier));
    }
    EXPECT_EQ(RankValidator::heldCount(), 1);
  }
  EXPECT_EQ(RankValidator::heldCount(), 0);
  EXPECT_EQ(RankValidator::topRank(), -1);
}

TEST(LockRankTest, ReleaseRestoresLowerRanksAcquirable) {
  RankedMutex control(kTestLow, "test.control");
  RankedMutex tier(LockRank::kVerdictTier, "test.tier");
  {
    const LockGuard a(tier);  // take the leaf first...
  }
  {
    const LockGuard b(control);  // ...then, after release, a lower rank
    EXPECT_EQ(RankValidator::heldCount(), 1);
  }
}

#if DARPA_LOCK_RANK_CHECKS
TEST(LockRankDeathTest, OutOfOrderAcquisitionAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  RankedMutex queue(kTestMid, "test.queue");
  RankedMutex tier(LockRank::kVerdictTier, "test.tier");
  EXPECT_DEATH(
      {
        const LockGuard outer(tier);   // leaf rank first...
        const LockGuard inner(queue);  // ...then a LOWER rank: deadlockable
      },
      "lock-rank");
}

TEST(LockRankDeathTest, SameRankReacquisitionAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  RankedMutex a(kTestMid, "test.a");
  RankedMutex b(kTestMid, "test.b");
  EXPECT_DEATH(
      {
        const LockGuard outer(a);
        const LockGuard inner(b);  // equal rank: order undefined -> abort
      },
      "lock-rank");
}
#endif  // DARPA_LOCK_RANK_CHECKS

TEST(LockRankTest, RegistryTracksLiveMutexes) {
  const int before = LockRankRegistry::instance().liveCount(kTestMid);
  {
    RankedMutex m(kTestMid, "test.registry-probe");
    EXPECT_EQ(LockRankRegistry::instance().liveCount(kTestMid), before + 1);
    bool found = false;
    for (const auto& entry : LockRankRegistry::instance().snapshot()) {
      if (entry.rank == kTestMid &&
          std::string(entry.name) == "test.registry-probe") {
        found = entry.live >= 1;
      }
    }
    EXPECT_TRUE(found);
  }
  EXPECT_EQ(LockRankRegistry::instance().liveCount(kTestMid), before);
}

TEST(LockRankTest, RankNamesCoverTheTable) {
  EXPECT_STREQ(lockRankName(LockRank::kVerdictTier), "verdict-tier");
  EXPECT_STREQ(lockRankName(kTestMid), "unknown");
}

// ------------------------------------------------- fleet rank smoke (W=4)

/// Deterministic thread-safe detector (one confident UPO per screen).
class SmokeDetector : public cv::Detector {
 public:
  std::vector<cv::Detection> detect(const gfx::Bitmap&) const override {
    return {cv::Detection{{10, 50, 60, 24}, dataset::BoxLabel::kUpo, 0.9f}};
  }
  double costMacsPerImage() const override { return 1.0e6; }
};

/// Live RankedMutexes in the process, over every rank.
int liveRankedMutexes() {
  int live = 0;
  for (const auto& entry : LockRankRegistry::instance().snapshot()) {
    live += entry.live;
  }
  return live;
}

TEST(LockRankTest, FleetRankTagsConsistentUnderFourWorkers) {
  // A tiered fleet at W=4 takes the verdict tier's lock from four workers
  // at once, probing and publishing, while the rank validator is live on
  // every thread. An ordering violation anywhere would abort the run.
  SmokeDetector detector;
  fleet::FleetConfig config;
  config.sessions = 16;
  config.workers = 4;
  config.duration = ms(2000);
  config.sharedVerdictTier = true;
  fleet::Fleet fleet(detector, config);

  // The tier's one lock is the only ranked lock alive: the fleet driver
  // holds none.
  auto& registry = LockRankRegistry::instance();
  EXPECT_EQ(registry.liveCount(LockRank::kVerdictTier), 1);
  EXPECT_EQ(liveRankedMutexes(), 1);

  fleet.run();
  const fleet::FleetSnapshot snap = fleet.snapshot();
  EXPECT_GT(snap.ledger.analyses(), 0);
  EXPECT_GT(snap.verdictTier.hits + snap.verdictTier.misses, 0);
  EXPECT_EQ(liveRankedMutexes(), 1);
  // Quiescent at the end: no thread still holds a ranked lock.
  EXPECT_EQ(RankValidator::heldCount(), 0);
}

}  // namespace
}  // namespace darpa::util
