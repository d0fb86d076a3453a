// Unit tests for the DARPA core runtime: ct debouncing, screenshot custody,
// decoration calibration, auto-bypass, and the security invariants.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "android/system.h"
#include "core/darpa_service.h"
#include "core/decoration.h"
#include "core/security.h"

namespace darpa::core {
namespace {

/// Scripted detector: returns a fixed set of detections for any screenshot.
class FakeDetector : public cv::Detector {
 public:
  std::vector<cv::Detection> detections;
  mutable int calls = 0;

  std::vector<cv::Detection> detect(const gfx::Bitmap&) const override {
    ++calls;
    return detections;
  }
  double costMacsPerImage() const override { return 1.0e6; }
};

cv::Detection makeDet(Rect box, dataset::BoxLabel label, float conf = 0.9f) {
  return cv::Detection{box, label, conf};
}

std::unique_ptr<android::View> blankScreen() {
  auto root = std::make_unique<android::View>();
  root->setBackground(colors::kWhite);
  return root;
}

// ---------------------------------------------------------------- security
TEST(ScreenshotVaultTest, SingleScreenshotInvariant) {
  ScreenshotVault vault;
  EXPECT_FALSE(vault.holding());
  vault.store(gfx::Bitmap(4, 4, colors::kRed));
  EXPECT_TRUE(vault.holding());
  // Implicit rinse of the first capture.
  vault.store(gfx::Bitmap(4, 4, colors::kBlue));
  EXPECT_EQ(vault.stored(), 2);
  EXPECT_EQ(vault.rinsed(), 1);
  EXPECT_EQ(vault.peakHeld(), 1);
  vault.rinse();
  EXPECT_FALSE(vault.holding());
  EXPECT_EQ(vault.rinsed(), 2);
  vault.rinse();  // idempotent
  EXPECT_EQ(vault.rinsed(), 2);
}

TEST(ScreenshotVaultTest, CurrentExposesHeldScreenshot) {
  ScreenshotVault vault;
  EXPECT_EQ(vault.current(), nullptr);
  vault.store(gfx::Bitmap(2, 2, colors::kGreen));
  ASSERT_NE(vault.current(), nullptr);
  EXPECT_EQ(vault.current()->at(0, 0), colors::kGreen);
  vault.rinse();
  EXPECT_EQ(vault.current(), nullptr);
}

TEST(PermissionManifestTest, DefaultIsMinimal) {
  const PermissionManifest manifest;
  EXPECT_TRUE(manifest.minimal());
  PermissionManifest leaky = manifest;
  leaky.internet = true;
  EXPECT_FALSE(leaky.minimal());
}

// The vault's capture must not see screen mutations that happen after it
// was taken — in particular DARPA's own decoration overlays.
TEST(ScreenshotVaultTest, HeldCaptureIsImmutableWhileDecorationIsDrawn) {
  android::WindowManager wm;
  auto content = std::make_unique<android::View>();
  content->setBackground(colors::kWhite);
  wm.showAppWindow("com.test.app", std::move(content), /*fullscreen=*/true);

  ScreenshotVault vault;
  vault.store(wm.composite());
  const gfx::Bitmap& held = *vault.current();
  EXPECT_EQ(held.at(180, 360), colors::kWhite);

  // Decorate the screen: a loud overlay across the middle.
  auto overlay = std::make_unique<android::View>();
  overlay->setBackground(colors::kGreen);
  android::LayoutParams params;
  params.x = 100;
  params.y = 300;
  params.width = 160;
  params.height = 120;
  wm.addOverlay(std::move(overlay), params);

  const gfx::Bitmap decorated = wm.composite();
  EXPECT_EQ(decorated.at(180, 360), colors::kGreen);
  // The held capture still shows the clean screen: every composite is a
  // buffer of its own.
  EXPECT_EQ(held.at(180, 360), colors::kWhite);
  EXPECT_NE(decorated, held);
}

// 16 captures of one unchanged screen, each rinsed (scrubbed and freed)
// before the next is stored, perceive it identically: same live
// fingerprint, same pixels, and never more than one capture held.
TEST(ScreenshotVaultTest, FingerprintsStableAcrossRecaptures) {
  android::WindowManager wm;
  auto content = std::make_unique<android::View>();
  content->setBackground(colors::kLightGray);
  wm.showAppWindow("com.test.app", std::move(content), /*fullscreen=*/false);

  ScreenshotVault vault;
  std::uint64_t firstFp = 0;
  gfx::Bitmap firstPixels;
  constexpr int kRounds = 16;
  for (int round = 0; round < kRounds; ++round) {
    vault.store(wm.composite());
    ASSERT_NE(vault.current(), nullptr);
    if (round == 0) {
      firstFp = wm.topWindowFingerprint();
      firstPixels = vault.current()->clone();
    } else {
      EXPECT_EQ(wm.topWindowFingerprint(), firstFp);
      EXPECT_EQ(*vault.current(), firstPixels);
    }
    vault.rinse();
    EXPECT_FALSE(vault.holding());
  }
  EXPECT_EQ(vault.stored(), kRounds);
  EXPECT_EQ(vault.rinsed(), kRounds);
  EXPECT_EQ(vault.peakHeld(), 1);
}

// ------------------------------------------------------------- decoration
TEST(DecorationViewTest, DrawsBorderNotInterior) {
  gfx::Bitmap bmp(40, 40, colors::kWhite);
  gfx::Canvas canvas(bmp);
  DecorationView decoration(colors::kGreen, 3);
  decoration.setFrame({5, 5, 30, 30});
  decoration.draw(canvas, {0, 0});
  EXPECT_EQ(bmp.at(6, 6), colors::kGreen);       // border
  EXPECT_EQ(bmp.at(20, 20), colors::kWhite);     // interior untouched
  EXPECT_FALSE(decoration.clickable());          // touches pass through
  EXPECT_EQ(decoration.className(), "DarpaDecorationView");
}

// ----------------------------------------------------------- the service
struct Harness {
  android::AndroidSystem system;
  FakeDetector detector;
  DarpaService service;

  explicit Harness(DarpaConfig config = {}) : service(detector, config) {
    system.accessibility.connect(service);
  }
};

TEST(DarpaServiceTest, RegistersAllEventsOnConnect) {
  Harness h;
  EXPECT_EQ(h.service.eventTypesMask(), android::kAllEventTypesMask);
  EXPECT_EQ(h.service.notificationTimeout().count, 200);
  EXPECT_TRUE(h.service.permissions().minimal());
}

TEST(DarpaServiceTest, DebounceWaitsForStability) {
  Harness h;
  h.system.windowManager.showAppWindow("com.app", blankScreen(), false);
  h.system.looper.runUntilIdle();
  const auto analysesAfterShow = h.service.stats().analysesRun;
  EXPECT_EQ(analysesAfterShow, 1);  // one analysis after the screen settled

  // A storm of events inside the ct window coalesces into one analysis.
  for (int i = 0; i < 5; ++i) {
    h.system.windowManager.notifyContentChanged();
    h.system.looper.runFor(ms(100));  // below notification timeout spacing
  }
  h.system.looper.runUntilIdle();
  EXPECT_LE(h.service.stats().analysesRun - analysesAfterShow, 5);
  EXPECT_GT(h.service.stats().eventsReceived, 0);
}

TEST(DarpaServiceTest, AnalysisTakesAndRinsesScreenshot) {
  Harness h;
  h.system.windowManager.showAppWindow("com.app", blankScreen(), false);
  h.system.looper.runUntilIdle();
  EXPECT_EQ(h.service.stats().screenshotsTaken, 1);
  EXPECT_EQ(h.service.vault().stored(), 1);
  EXPECT_EQ(h.service.vault().rinsed(), 1);   // rinsed right after detect
  EXPECT_FALSE(h.service.vault().holding());  // nothing retained
  EXPECT_EQ(h.detector.calls, 1);
}

TEST(DarpaServiceTest, NoAuiMeansNoDecorations) {
  Harness h;
  h.system.windowManager.showAppWindow("com.app", blankScreen(), false);
  h.system.looper.runUntilIdle();
  EXPECT_FALSE(h.service.lastWasAui());
  EXPECT_EQ(h.system.windowManager.overlayCount(), 0u);
}

TEST(DarpaServiceTest, DecoratesUpoWithCalibratedOffset) {
  Harness h;
  // Detector reports a UPO at screen coords (100, 100).
  h.detector.detections = {makeDet({100, 100, 20, 20}, dataset::BoxLabel::kUpo)};
  h.system.windowManager.showAppWindow("com.app", blankScreen(), false);
  h.system.looper.runUntilIdle();
  EXPECT_TRUE(h.service.lastWasAui());
  EXPECT_EQ(h.service.stats().auisFlagged, 1);
  const std::vector<Rect> rects = h.service.decorationRects();
  ASSERT_EQ(rects.size(), 1u);
  // The decoration ring must sit around the detection box ON SCREEN —
  // i.e., the §IV-D calibration corrected for the status-bar offset.
  const Rect expected = Rect{100, 100, 20, 20}.inflated(
      DarpaService::kDecorationThickness + 1);
  EXPECT_EQ(rects[0], expected);
}

TEST(DarpaServiceTest, WithoutCalibrationDecorationWouldDrift) {
  // Demonstrates Fig. 4: placing the overlay at raw screen coordinates
  // (i.e., skipping the anchor-view offset) lands it offset by the status
  // bar height for non-fullscreen windows.
  android::AndroidSystem system;
  system.windowManager.showAppWindow("com.app", blankScreen(), false);
  auto naive = std::make_unique<DecorationView>(colors::kGreen, 2);
  const int id =
      system.windowManager.addOverlay(std::move(naive), {100, 100, 20, 20});
  const Rect actual = *system.windowManager.overlayBoundsOnScreen(id);
  EXPECT_EQ(actual.y, 100 + 24);  // drifted by the status bar height
}

TEST(DarpaServiceTest, DecorationsClearedBeforeNextScreenshot) {
  Harness h;
  h.detector.detections = {makeDet({50, 50, 20, 20}, dataset::BoxLabel::kUpo)};
  h.system.windowManager.showAppWindow("com.app", blankScreen(), false);
  h.system.looper.runUntilIdle();
  EXPECT_EQ(h.system.windowManager.overlayCount(), 1u);
  // Next UI change triggers re-analysis; old decoration must be gone first
  // and replaced by the new one (count stays 1, not 2).
  h.system.windowManager.notifyContentChanged();
  h.system.looper.runUntilIdle();
  EXPECT_EQ(h.system.windowManager.overlayCount(), 1u);
}

TEST(DarpaServiceTest, DecoratesBothClasses) {
  Harness h;
  h.detector.detections = {
      makeDet({50, 300, 200, 60}, dataset::BoxLabel::kAgo),
      makeDet({300, 50, 20, 20}, dataset::BoxLabel::kUpo)};
  h.system.windowManager.showAppWindow("com.app", blankScreen(), true);
  h.system.looper.runUntilIdle();
  EXPECT_EQ(h.service.stats().decorationsDrawn, 2);
  EXPECT_EQ(h.system.windowManager.overlayCount(), 2u);
}

TEST(DarpaServiceTest, RequireUpoGatesAuiVerdict) {
  Harness h;
  h.detector.detections = {makeDet({50, 300, 200, 60}, dataset::BoxLabel::kAgo)};
  h.system.windowManager.showAppWindow("com.app", blankScreen(), false);
  h.system.looper.runUntilIdle();
  // AGO alone does not make an AUI (footnote-4 rule).
  EXPECT_FALSE(h.service.lastWasAui());
  EXPECT_EQ(h.service.stats().auisFlagged, 0);
}

TEST(DarpaServiceTest, AutoBypassClicksUpo) {
  DarpaConfig config;
  config.autoBypass = true;
  Harness h(config);
  h.detector.detections = {makeDet({100, 100, 20, 20}, dataset::BoxLabel::kUpo)};

  auto root = blankScreen();
  auto* closeBtn = root->addChild(std::make_unique<android::Button>());
  closeBtn->setFrame({100, 100, 20, 20});  // fullscreen: window == screen
  int closed = 0;
  closeBtn->setOnClick([&] { ++closed; });
  h.system.windowManager.showAppWindow("com.app", std::move(root), true);
  h.system.looper.runUntilIdle();

  EXPECT_GE(h.service.stats().bypassClicks, 1);
  EXPECT_GE(closed, 1);
  // Bypass mode doesn't draw decorations.
  EXPECT_EQ(h.system.windowManager.overlayCount(), 0u);
}

TEST(DarpaServiceTest, LedgerMetersAllStages) {
  Harness h;
  h.detector.detections = {makeDet({10, 10, 20, 20}, dataset::BoxLabel::kUpo)};
  h.system.windowManager.showAppWindow("com.app", blankScreen(), false);
  h.system.looper.runUntilIdle();
  const WorkLedger& ledger = h.service.ledger();
  EXPECT_GT(ledger.tally(Stage::kEvent).runs, 0);
  EXPECT_EQ(ledger.tally(Stage::kScreenshot).runs, 1);
  EXPECT_EQ(ledger.tally(Stage::kDetect).runs, 1);
  EXPECT_EQ(ledger.tally(Stage::kVerdict).runs, 2);  // cache probe + merge
  EXPECT_EQ(ledger.counts().decorationsDrawn, 1);
  EXPECT_GT(ledger.tally(Stage::kAct).cpuMs, 0.0);
  // No lint engine configured: the stage is skipped, never run.
  EXPECT_EQ(ledger.tally(Stage::kLint).runs, 0);
  EXPECT_EQ(ledger.tally(Stage::kLint).skips, 1);
  EXPECT_EQ(&ledger.counts(), &h.service.stats());
  EXPECT_GT(ledger.totalCpuMs(), 0.0);
  EXPECT_GT(ledger.analysisCpuMs(), 0.0);
}

TEST(DarpaServiceTest, AnalysisListenerReportsVerdict) {
  Harness h;
  bool verdict = false;
  int calls = 0;
  h.service.setAnalysisListener(
      [&](bool isAui, const std::vector<cv::Detection>&) {
        verdict = isAui;
        ++calls;
      });
  h.system.windowManager.showAppWindow("com.app", blankScreen(), false);
  h.system.looper.runUntilIdle();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(verdict);
  // Mutate the screen along with the scripted detector: an unchanged screen
  // would (correctly) be served its cached non-AUI verdict.
  h.detector.detections = {makeDet({10, 10, 20, 20}, dataset::BoxLabel::kUpo)};
  auto popup = std::make_unique<android::View>();
  popup->setFrame({10, 10, 20, 20});
  h.system.windowManager.topAppWindow()->content().addChild(std::move(popup));
  h.system.windowManager.notifyContentChanged();
  h.system.looper.runUntilIdle();
  EXPECT_EQ(calls, 2);
  EXPECT_TRUE(verdict);
}

TEST(DarpaServiceTest, CutoffDelaysAnalysis) {
  DarpaConfig config;
  config.cutoff = ms(500);
  Harness h(config);
  h.system.windowManager.showAppWindow("com.app", blankScreen(), false);
  h.system.looper.runFor(ms(400));
  EXPECT_EQ(h.service.stats().analysesRun, 0);  // not yet stable long enough
  h.system.looper.runFor(ms(400));
  EXPECT_EQ(h.service.stats().analysesRun, 1);
}

}  // namespace
}  // namespace darpa::core
