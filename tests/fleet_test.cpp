// Fleet-scale tests: the synchronous detect path, fleet-of-1 equivalence
// with the hand-wired harness, a session before its phone is built, the
// phone's release at the horizon, determinism across worker counts and
// runs, and a cancel-heavy Looper run that leaves nothing behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "android/accessibility.h"
#include "android/looper.h"
#include "android/system.h"
#include "android/view.h"
#include "apps/app_model.h"
#include "core/darpa_service.h"
#include "fleet/device_session.h"
#include "fleet/fleet.h"

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

  [[nodiscard]] std::int64_t calls() const { return calls_.load(); }

 private:
  mutable std::atomic<std::int64_t> calls_{0};
};

// ------------------------------------------------------ synchronous detect

TEST(FleetTest, AnalyzeNowDetectsSynchronously) {
  StubDetector detector;
  android::AndroidSystem system;
  core::DarpaService service(detector);
  system.accessibility.connect(service);
  auto root = std::make_unique<android::View>();
  root->setBackground(colors::kWhite);
  system.windowManager.showAppWindow("com.app.sync", std::move(root), false);

  int heard = 0;
  service.setAnalysisListener(
      [&heard](bool isAui, const std::vector<cv::Detection>& detections) {
        ++heard;
        EXPECT_TRUE(isAui);
        EXPECT_EQ(detections.size(), 1u);
      });
  service.analyzeNow();

  // The model ran, the verdict reached the listener, and the detect was
  // priced at costMacsPerImage / macsPerCpuMs, all before the return.
  EXPECT_EQ(detector.calls(), 1);
  EXPECT_EQ(heard, 1);
  const core::StageTally& detect =
      service.ledger().tally(core::Stage::kDetect);
  EXPECT_EQ(detect.runs, 1);
  EXPECT_DOUBLE_EQ(detect.cpuMs, detector.costMacsPerImage() /
                                     core::kStageCosts.macsPerCpuMs);
  // §IV-E: the frame left the vault for the model run and was not kept.
  EXPECT_FALSE(service.vault().holding());
  EXPECT_EQ(service.vault().stored(), 1);
  EXPECT_EQ(service.vault().rinsed(), 1);
}

// ------------------------------------------------- fleet-of-1 equivalence

TEST(FleetTest, DeviceSessionMatchesHandWiredHarness) {
  StubDetector detector;
  const core::DarpaConfig darpa;
  const Millis length = ms(15'000);
  Rng rng(123);
  const apps::AppProfile profile = apps::randomAppProfile("com.app.x", rng);
  const std::uint64_t appSeed = rng.next();
  const std::uint64_t monkeySeed = rng.next();

  // The pre-fleet hand-wired harness, verbatim, plus a listener that
  // records the positive-verdict timeline for the coverage count.
  android::AndroidSystem system;
  core::DarpaService service(detector, darpa);
  system.accessibility.connect(service);
  apps::AppSession app(system, profile, appSeed);
  apps::MonkeyDriver monkey(system, monkeySeed);
  std::vector<Millis> positives;
  service.setAnalysisListener(
      [&](bool isAui, const std::vector<cv::Detection>&) {
        if (isAui) positives.push_back(system.clock.now());
      });
  app.start(length);
  monkey.start(system.clock.now() + length, 1500, 4000);
  system.looper.runUntil(system.clock.now() + length);
  std::int64_t covered = 0;
  for (const apps::AuiExposure& exposure : app.exposures()) {
    covered += std::any_of(positives.begin(), positives.end(), [&](Millis t) {
      return t >= exposure.shownAt && t < exposure.hiddenAt;
    });
  }

  // The same device as a fleet-of-1 DeviceSession.
  DeviceSession::Config config;
  config.darpa = darpa;
  config.profile = profile;
  config.appSeed = appSeed;
  config.monkeySeed = monkeySeed;
  config.duration = length;
  DeviceSession device(detector, std::move(config));
  device.runToCompletion();

  EXPECT_EQ(device.stats(), service.stats());
  EXPECT_EQ(device.ledger().tally(core::Stage::kDetect).runs,
            service.ledger().tally(core::Stage::kDetect).runs);
  EXPECT_DOUBLE_EQ(device.ledger().totalCpuMs(),
                   service.ledger().totalCpuMs());
  EXPECT_EQ(device.eventsEmitted(), system.accessibility.totalEmitted());
  EXPECT_EQ(device.auiExposures(),
            static_cast<std::int64_t>(app.exposures().size()));
  EXPECT_EQ(device.auisCovered(), covered);
  EXPECT_EQ(device.fingerprintWalks(), system.windowManager.fingerprintWalks());
  EXPECT_GT(device.stats().analysesRun, 0);
  EXPECT_GT(covered, 0);
  EXPECT_GT(device.fingerprintWalks(), 0);
  EXPECT_EQ(device.now(), length);
}

// ------------------------------------------------ before the phone is built

DeviceSession::Config sessionConfig(int id) {
  Rng rng(900 + static_cast<std::uint64_t>(id));
  DeviceSession::Config config;
  config.id = id;
  config.profile = apps::randomAppProfile("com.app.lazy", rng);
  config.appSeed = rng.next();
  config.monkeySeed = rng.next();
  config.duration = ms(6000);
  return config;
}

/// Counts every event its manager delivers to it.
class EventCounter final : public android::AccessibilityService {
 public:
  void onAccessibilityEvent(const android::AccessibilityEvent&) override {
    ++events;
  }
  std::int64_t events = 0;
};

// Until the phone is built a session reads as a fresh phone would: zero
// counts, an empty ledger and time 0, the same values a built but unrun
// phone reads.
TEST(DeviceSessionTest, UnbuiltSessionReadsLikeAFreshPhone) {
  StubDetector detector;
  const DeviceSession unbuilt(detector, sessionConfig(1));
  DeviceSession built(detector, sessionConfig(1));
  (void)built.system();

  for (const DeviceSession* session :
       std::array<const DeviceSession*, 2>{&unbuilt, &built}) {
    EXPECT_EQ(session->stats(), core::DarpaStats{});
    EXPECT_EQ(session->ledger().counts(), core::DarpaStats{});
    EXPECT_EQ(session->ledger().tally(core::Stage::kDetect).runs, 0);
    EXPECT_EQ(session->ledger().totalCpuMs(), 0.0);
    EXPECT_EQ(session->now(), Millis{0});
    EXPECT_EQ(session->eventsEmitted(), 0);
    EXPECT_EQ(session->fingerprintWalks(), 0);
    EXPECT_EQ(session->auiExposures(), 0);
    EXPECT_EQ(session->auisCovered(), 0);
  }
  EXPECT_EQ(detector.calls(), 0);
}

// A listener set before the run is kept until the run builds the phone,
// and then hears every analysis.
TEST(DeviceSessionTest, ListenerSetBeforeTheRunFires) {
  StubDetector detector;
  DeviceSession session(detector, sessionConfig(2));
  std::int64_t heard = 0;
  std::int64_t positives = 0;
  session.setAnalysisListener(
      [&](bool isAui, const std::vector<cv::Detection>& detections) {
        ++heard;
        positives += isAui;
        EXPECT_EQ(isAui, !detections.empty());
      });
  session.runToCompletion();

  EXPECT_GT(heard, 0);
  EXPECT_EQ(heard, session.stats().analysesRun);
  EXPECT_EQ(positives, session.stats().auisFlagged);
}

// system() before the run builds the phone on the calling thread; a service
// connected there hears the session's events, and the session counts as
// one whose phone the run built.
TEST(DeviceSessionTest, SystemBeforeTheRunBuildsThePhone) {
  StubDetector detector;
  DeviceSession lazy(detector, sessionConfig(3));
  lazy.runToCompletion();

  DeviceSession early(detector, sessionConfig(3));
  EventCounter counter;
  early.system().accessibility.connect(counter);
  early.runToCompletion();

  EXPECT_GT(counter.events, 0);
  EXPECT_EQ(early.stats(), lazy.stats());
  EXPECT_EQ(early.eventsEmitted(), lazy.eventsEmitted());
  EXPECT_EQ(early.fingerprintWalks(), lazy.fingerprintWalks());
  EXPECT_EQ(early.auisCovered(), lazy.auisCovered());
  EXPECT_DOUBLE_EQ(early.ledger().totalCpuMs(), lazy.ledger().totalCpuMs());
}

// Who builds a phone changes nothing: a W=4 fleet whose even sessions were
// built on this thread before the run digests like one built by its workers.
TEST(DeviceSessionTest, PhonesBuiltBeforeTheRunDigestLikeLazyOnes) {
  StubDetector detector;
  FleetConfig config;
  config.sessions = 16;
  config.workers = 4;
  config.duration = ms(3000);
  Fleet lazy(detector, config);
  lazy.run();

  Fleet early(detector, config);
  for (int i = 0; i < early.sessionCount(); i += 2) {
    (void)early.session(i).service();
  }
  early.run();

  const FleetSnapshot a = lazy.snapshot();
  const FleetSnapshot b = early.snapshot();
  EXPECT_GT(a.ledger.counts().analysesRun, 0);
  EXPECT_EQ(a.ledger.counts(), b.ledger.counts());
  EXPECT_DOUBLE_EQ(a.ledger.totalCpuMs(), b.ledger.totalCpuMs());
  EXPECT_EQ(a.eventsEmitted, b.eventsEmitted);
  EXPECT_EQ(a.auisCovered, b.auisCovered);
  EXPECT_EQ(a.fingerprintWalks, b.fingerprintWalks);
}

// --------------------------------------------------- release at horizon

// At the horizon the session settles its counts and releases the phone:
// reaching for the phone afterwards aborts, naming the session.
TEST(DeviceSessionDeathTest, PhoneAccessorsAbortAfterTheRun) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  StubDetector detector;
  DeviceSession::Config config;
  config.id = 7;
  config.duration = ms(2000);
  DeviceSession device(detector, std::move(config));
  (void)device.system();
  (void)device.service();
  (void)device.app();
  device.runToCompletion();

  EXPECT_EQ(device.now(), ms(2000));
  EXPECT_GT(device.stats().analysesRun, 0);
  EXPECT_DEATH((void)device.system(), "DeviceSession 7: system\\(\\) after");
  EXPECT_DEATH((void)device.service(), "DeviceSession 7: service\\(\\) after");
  EXPECT_DEATH((void)device.app(), "DeviceSession 7: app\\(\\) after");
  EXPECT_DEATH(device.runToCompletion(), "DeviceSession 7: runToCompletion");
}

// A session whose phone the run itself built releases it the same way.
TEST(DeviceSessionDeathTest, LazilyBuiltPhoneAbortsAfterTheRun) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  StubDetector detector;
  DeviceSession device(detector, sessionConfig(8));
  device.runToCompletion();

  EXPECT_EQ(device.now(), ms(6000));
  EXPECT_GT(device.stats().analysesRun, 0);
  EXPECT_DEATH((void)device.system(), "DeviceSession 8: system\\(\\) after");
  EXPECT_DEATH((void)device.service(), "DeviceSession 8: service\\(\\) after");
  EXPECT_DEATH((void)device.app(), "DeviceSession 8: app\\(\\) after");
  EXPECT_DEATH(device.setAnalysisListener({}),
               "DeviceSession 8: setAnalysisListener\\(\\) after");
  EXPECT_DEATH(device.runToCompletion(), "DeviceSession 8: runToCompletion");
}

// A session releases its phone on the thread that ran it, so at W=1 the
// next session builds its screens from the blocks the last one gave back.
// A block comes fresh only when a session needs more of one size than any
// session before it did, which gets rarer as the fleet grows: 128 sessions
// read ~98 % reuse, and ~52 % when every finished session keeps its phone.
TEST(FleetTest, FinishedSessionsGiveTheirViewBlocksBack) {
  StubDetector detector;
  FleetConfig config;
  config.sessions = 1;
  config.duration = ms(3000);
  Fleet(detector, config).run();  // Warm-up: fills this thread's cache.

  config.sessions = 128;
  const android::ViewBlockStats before = android::viewBlockStats();
  Fleet fleet(detector, config);
  fleet.run();
  const android::ViewBlockStats& after = android::viewBlockStats();
  const std::int64_t reused = after.reused - before.reused;
  const std::int64_t fresh = after.fresh - before.fresh;
  ASSERT_GT(reused + fresh, 0);
  EXPECT_GE(static_cast<double>(reused) / static_cast<double>(reused + fresh),
            0.95)
      << reused << " blocks reused, " << fresh << " fresh";
}

// ------------------------------------------------ worker-count determinism

struct FleetFingerprint {
  core::DarpaStats stats;
  std::int64_t detectRuns = 0;
  double totalCpuMs = 0.0;
  std::int64_t eventsEmitted = 0;
  std::int64_t auiExposures = 0;
  std::int64_t auisCovered = 0;
};

void expectFingerprintEq(const FleetFingerprint& a, const FleetFingerprint& b) {
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.detectRuns, b.detectRuns);
  EXPECT_DOUBLE_EQ(a.totalCpuMs, b.totalCpuMs);
  EXPECT_EQ(a.eventsEmitted, b.eventsEmitted);
  EXPECT_EQ(a.auiExposures, b.auiExposures);
  EXPECT_EQ(a.auisCovered, b.auisCovered);
}

FleetFingerprint runFleet(int sessions, int workers) {
  StubDetector detector;
  FleetConfig config;
  config.sessions = sessions;
  config.workers = workers;
  config.duration = ms(3000);
  Fleet fleet(detector, config);
  fleet.run();
  const FleetSnapshot snap = fleet.snapshot();
  EXPECT_EQ(snap.sessions, sessions);
  EXPECT_EQ(snap.simTime, ms(3000));
  return {snap.ledger.counts(),
          snap.ledger.tally(core::Stage::kDetect).runs,
          snap.ledger.totalCpuMs(),
          snap.eventsEmitted,
          snap.auiExposures,
          snap.auisCovered};
}

TEST(FleetTest, SixtyFourSessionsDeterministicAcrossWorkersAndRuns) {
  const FleetFingerprint serial = runFleet(64, 1);
  const FleetFingerprint fourWorkers = runFleet(64, 4);
  const FleetFingerprint repeat = runFleet(64, 4);
  EXPECT_GT(serial.stats.analysesRun, 0);
  expectFingerprintEq(serial, fourWorkers);
  expectFingerprintEq(fourWorkers, repeat);
}

TEST(FleetTest, InlineFleetMatchesIndependentDeviceSessions) {
  // A fleet is just N independent sessions; its merged snapshot must equal
  // the sum of running each session by hand, and its counts are the merged
  // ledger's.
  StubDetector detector;
  FleetConfig config;
  config.sessions = 4;
  config.duration = ms(5000);
  Fleet fleet(detector, config);
  fleet.run();
  const FleetSnapshot snap = fleet.snapshot();

  core::WorkLedger merged;
  Rng rng(config.seed);
  for (int i = 0; i < config.sessions; ++i) {
    DeviceSession::Config session;
    session.id = i;
    session.profile =
        apps::randomAppProfile("com.fleet.app" + std::to_string(i), rng);
    session.appSeed = rng.next();
    session.monkeySeed = rng.next();
    session.duration = config.duration;
    DeviceSession device(detector, std::move(session));
    device.runToCompletion();
    merged += device.ledger();
  }
  EXPECT_EQ(snap.stats, snap.ledger.counts());
  EXPECT_EQ(snap.ledger.counts(), merged.counts());
  EXPECT_DOUBLE_EQ(snap.ledger.totalCpuMs(), merged.totalCpuMs());
}

// ------------------------------------------------------------ looper GC

TEST(LooperGcTest, CancelHeavyRunStaysBounded) {
  SimClock clock;
  android::Looper looper(clock);
  std::int64_t executed = 0;

  // The fleet debounce pattern at its worst: every posted timer is
  // cancelled by the next event. A cancel removes its task at once.
  for (int round = 0; round < 200; ++round) {
    std::vector<android::TaskId> ids;
    for (int i = 0; i < 8; ++i) {
      ids.push_back(looper.postDelayed([&] { ++executed; }, ms(10'000 + i)));
    }
    EXPECT_EQ(looper.pendingCount(), 8u);
    for (const android::TaskId id : ids) EXPECT_TRUE(looper.cancel(id));
    EXPECT_EQ(looper.pendingCount(), 0u);
  }

  EXPECT_TRUE(looper.idle());
  looper.runUntilIdle();
  EXPECT_EQ(executed, 0);
}

}  // namespace
}  // namespace darpa::fleet
