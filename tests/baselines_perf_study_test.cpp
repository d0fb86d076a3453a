// Unit tests for the FraudDroid baseline, the device performance model, and
// the user-study simulation.
#include <gtest/gtest.h>

#include "baselines/frauddroid.h"
#include "perf/device_model.h"
#include "study/user_study.h"

namespace darpa {
namespace {

using baselines::FraudDroidDetector;
using baselines::FraudDroidResult;

android::UiNode node(std::string cls, std::string rid, Rect bounds,
                     bool clickable) {
  android::UiNode n;
  n.className = std::move(cls);
  n.resourceId = std::move(rid);
  n.boundsOnScreen = bounds;
  n.clickable = clickable;
  return n;
}

constexpr Size kScreen{360, 720};

TEST(FraudDroidTest, FlagsAuiWithNamedIds) {
  const android::UiDump dump = {
      node("ImageView", "iv_ad_creative", {30, 100, 300, 400}, true),
      node("IconView", "btn_close", {310, 90, 20, 20}, true),
  };
  const FraudDroidResult result = FraudDroidDetector().analyze(dump, kScreen);
  EXPECT_TRUE(result.isAui);
  ASSERT_EQ(result.upoBoxes.size(), 1u);
  EXPECT_EQ(result.upoBoxes[0], (Rect{310, 90, 20, 20}));
  EXPECT_FALSE(result.agoBoxes.empty());
}

TEST(FraudDroidTest, ObfuscatedIdsDefeatIt) {
  // Same layout, ids minified — exactly the §VI-C failure mode.
  const android::UiDump dump = {
      node("ImageView", "ax", {30, 100, 300, 400}, true),
      node("IconView", "", {310, 90, 20, 20}, true),
  };
  const FraudDroidResult result = FraudDroidDetector().analyze(dump, kScreen);
  EXPECT_FALSE(result.isAui);
  EXPECT_TRUE(result.upoBoxes.empty());
}

TEST(FraudDroidTest, LargeCloseButtonFailsPlacementHeuristic) {
  const android::UiDump dump = {
      node("ImageView", "iv_ad_creative", {30, 100, 300, 400}, true),
      node("Button", "btn_close", {30, 520, 300, 120}, true),  // too big
  };
  EXPECT_FALSE(FraudDroidDetector().analyze(dump, kScreen).isAui);
}

TEST(FraudDroidTest, UpoWithoutAgoIsNotAui) {
  const android::UiDump dump = {
      node("IconView", "btn_close", {310, 90, 20, 20}, true),
  };
  EXPECT_FALSE(FraudDroidDetector().analyze(dump, kScreen).isAui);
}

TEST(FraudDroidTest, DominantClickableSurfaceCountsAsAgo) {
  const android::UiDump dump = {
      node("ImageView", "xy", {0, 24, 360, 648}, true),  // whole-screen ad
      node("IconView", "btn_skip_x", {330, 30, 18, 18}, true),
  };
  EXPECT_TRUE(FraudDroidDetector().analyze(dump, kScreen).isAui);
}

TEST(FraudDroidTest, EmptyDump) {
  EXPECT_FALSE(FraudDroidDetector().analyze({}, kScreen).isAui);
}

// ------------------------------------------------------------- perf model
TEST(DeviceModelTest, BaselineMatchesTableVII) {
  const perf::DeviceModel model;
  const perf::PerfMetrics base = model.baseline();
  EXPECT_DOUBLE_EQ(base.cpuPercent, 55.22);
  EXPECT_DOUBLE_EQ(base.memoryMb, 4291.96);
  EXPECT_DOUBLE_EQ(base.frameRate, 81.0);
  EXPECT_DOUBLE_EQ(base.powerMw, 443.85);
}

namespace {
/// Synthesizes a ledger through the record calls the pipeline makes while
/// running: n events/screenshots/detections plus optional decorations.
/// The captures carry no frame, so the memory row holds no frame term.
core::WorkLedger syntheticLedger(std::int64_t events, std::int64_t shots,
                                 std::int64_t detections, double macs,
                                 std::int64_t decorations = 0) {
  core::WorkLedger ledger;
  for (std::int64_t i = 0; i < events; ++i) ledger.recordEvent();
  for (std::int64_t i = 0; i < shots; ++i) ledger.recordScreenshot(0);
  for (std::int64_t i = 0; i < detections; ++i) ledger.recordDetect(macs);
  for (std::int64_t i = 0; i < decorations; ++i) ledger.recordDecoration();
  return ledger;
}
}  // namespace

TEST(DeviceModelTest, MoreWorkCostsMore) {
  const perf::DeviceModel model;
  const double macs = 5e6;
  const core::WorkLedger light = syntheticLedger(30, 5, 5, macs);
  const core::WorkLedger heavy = syntheticLedger(300, 100, 100, macs);
  const auto a = model.withWork(light, ms(60000));
  const auto b = model.withWork(heavy, ms(60000));
  EXPECT_GT(b.cpuPercent, a.cpuPercent);
  EXPECT_GT(b.powerMw, a.powerMw);
  EXPECT_LT(b.frameRate, a.frameRate);
  EXPECT_GT(a.cpuPercent, model.baseline().cpuPercent);
}

TEST(DeviceModelTest, ComponentFlagsDecomposeOverhead) {
  const perf::DeviceModel model;
  const double macs = 2e7;  // a realistic one-stage detector footprint
  const core::WorkLedger work = syntheticLedger(120, 20, 20, macs, 2);
  const auto monitoring = model.withWork(work, ms(60000), true, false, false);
  const auto withDetection =
      model.withWork(work, ms(60000), true, true, false);
  const auto full = model.withWork(work, ms(60000), true, true, true);
  // Detection dominates the increments (Table VII's finding).
  const double detCpu = withDetection.cpuPercent - monitoring.cpuPercent;
  const double monCpu = monitoring.cpuPercent - model.baseline().cpuPercent;
  const double decCpu = full.cpuPercent - withDetection.cpuPercent;
  EXPECT_GT(detCpu, monCpu);
  EXPECT_GT(detCpu, decCpu);
  EXPECT_GT(full.memoryMb, monitoring.memoryMb);
}

TEST(DeviceModelTest, ZeroWorkEqualsBaselinePlusResidentMemory) {
  const perf::DeviceModel model;
  const auto idle = model.withWork(core::WorkLedger{}, ms(60000));
  EXPECT_DOUBLE_EQ(idle.cpuPercent, model.baseline().cpuPercent);
  EXPECT_GT(idle.memoryMb, model.baseline().memoryMb);  // resident model
}

TEST(DeviceModelTest, CacheHitsReduceModeledCost) {
  // Two workloads analyzing the same 100 screens: one pays full screenshot
  // + detection every time, the other serves 80 from the verdict cache.
  const perf::DeviceModel model;
  const double macs = 2e7;
  const core::WorkLedger cold = syntheticLedger(200, 100, 100, macs);
  core::WorkLedger warm = syntheticLedger(200, 20, 20, macs);
  for (int i = 0; i < 100; ++i) warm.recordCacheLookup();
  for (int i = 0; i < 80; ++i) warm.recordCacheHit();
  const auto coldMetrics = model.withWork(cold, ms(60000));
  const auto warmMetrics = model.withWork(warm, ms(60000));
  EXPECT_LT(warmMetrics.cpuPercent, coldMetrics.cpuPercent);
  EXPECT_GT(warmMetrics.frameRate, coldMetrics.frameRate);
  EXPECT_EQ(warm.cacheHits(), 80);
}

// -------------------------------------------------------------- user study
TEST(UserStudyTest, ReproducesFindingShapes) {
  study::StudyConfig config;
  const study::StudyResults results = study::runUserStudy(config);
  EXPECT_EQ(results.participants, 165);
  // Finding 1: strong agreement that AUIs mislead; AGO rated far above UPO.
  EXPECT_GT(results.misleadingAgreePct, 80.0);
  EXPECT_GT(results.avgAgoRating, results.avgUpoRating + 1.5);
  EXPECT_GT(results.avgAgoRating, 6.0);
  EXPECT_LT(results.avgUpoRating, 6.0);
  // Finding 2: most users misclick at least occasionally.
  EXPECT_GT(results.oftenMisclickPct, 50.0);
  EXPECT_LT(results.neverMisclickPct, 15.0);
  EXPECT_NEAR(results.oftenMisclickPct + results.occasionallyMisclickPct +
                  results.neverMisclickPct,
              100.0, 0.1);
  // Finding 3: clear demand for mitigation.
  EXPECT_GT(results.demandRating, 6.0);
  EXPECT_GT(results.wantHighlightPct, 50.0);
  // Demographics echo the paper's skew.
  EXPECT_GT(results.bachelorPct, 85.0);
  EXPECT_GT(results.age18to35Pct, 60.0);
}

TEST(UserStudyTest, DeterministicForSeed) {
  study::StudyConfig config;
  const auto a = study::runUserStudy(config);
  const auto b = study::runUserStudy(config);
  EXPECT_EQ(a.avgAgoRating, b.avgAgoRating);
  EXPECT_EQ(a.oftenMisclickPct, b.oftenMisclickPct);
}

TEST(UserStudyTest, MoreParticipantsStillSane) {
  study::StudyConfig config;
  config.participants = 600;
  config.seed = 77;
  const auto results = study::runUserStudy(config);
  EXPECT_EQ(results.participants, 600);
  EXPECT_GT(results.avgAgoRating, results.avgUpoRating);
}

}  // namespace
}  // namespace darpa
