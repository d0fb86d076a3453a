// SharedVerdictTier tests: the L2's LRU/eviction/poisoning-guard unit
// contracts, a concurrent publish/find hammer (the TSan lane runs this
// suite), and the tier refactor's two fleet-level contracts:
//
//  1. Tier DISABLED (the default): 64-session fleet digests stay
//     byte-identical across worker counts and reruns — the tier's mere
//     existence changes nothing.
//  2. Tier ENABLED over a shared app population: every session still
//     reaches the same per-session verdicts (same analyses, same AUIs
//     flagged), but the fleet runs strictly fewer model detects — the L2
//     hits moved who pays, never what is decided.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/verdict_tier.h"
#include "fleet/fleet.h"
#include "perf/device_model.h"
#include "util/rng.h"

namespace darpa::core {
namespace {

cv::Detection upo() {
  return cv::Detection{{10, 50, 60, 24}, dataset::BoxLabel::kUpo, 0.9f};
}

// ------------------------------------------------------- unit contracts

TEST(SharedVerdictTierTest, PublishFindLruAndEvictions) {
  SharedVerdictTier tier(2);
  EXPECT_TRUE(tier.enabled());

  using Evidence = SharedVerdictTier::Evidence;
  EXPECT_TRUE(tier.publish(1, {true, {upo()}}, Evidence::kCapture));
  EXPECT_TRUE(tier.publish(2, {false, {}}, Evidence::kLint));
  ASSERT_TRUE(tier.find(1).has_value());  // refresh 1: now 2 is the LRU
  EXPECT_TRUE(tier.publish(3, {true, {upo()}}, Evidence::kCapture));

  EXPECT_FALSE(tier.find(2).has_value());  // 2 was evicted
  const auto one = tier.find(1);
  ASSERT_TRUE(one.has_value());
  EXPECT_TRUE(one->isAui);
  ASSERT_EQ(one->detections.size(), 1u);
  EXPECT_TRUE(tier.find(3).has_value());

  // Re-publishing refreshes value and recency instead of duplicating.
  EXPECT_TRUE(tier.publish(1, {false, {}}, Evidence::kCapture));
  const auto updated = tier.find(1);
  ASSERT_TRUE(updated.has_value());
  EXPECT_FALSE(updated->isAui);

  const SharedVerdictTier::Stats stats = tier.stats();
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.publishes, 4);
  EXPECT_EQ(stats.hits, 4);
  EXPECT_EQ(stats.misses, 1);
}

TEST(SharedVerdictTierTest, PoisoningGuardRejectsUnevidencedVerdicts) {
  SharedVerdictTier tier(8);
  // A verdict with no lint resolution and no usable capture (a transient
  // screenshot failure) must never become fleet truth.
  EXPECT_FALSE(tier.publish(7, {false, {}},
                            SharedVerdictTier::Evidence::kNone));
  EXPECT_FALSE(tier.find(7).has_value());
  const SharedVerdictTier::Stats stats = tier.stats();
  EXPECT_EQ(stats.rejectedUnevidenced, 1);
  EXPECT_EQ(stats.publishes, 0);
  EXPECT_EQ(stats.entries, 0);
}

TEST(SharedVerdictTierTest, ZeroCapacityDisablesWithoutUnwiring) {
  SharedVerdictTier tier(0);
  EXPECT_FALSE(tier.enabled());
  EXPECT_FALSE(tier.publish(1, {true, {upo()}},
                            SharedVerdictTier::Evidence::kCapture));
  EXPECT_FALSE(tier.find(1).has_value());
  EXPECT_EQ(tier.stats().entries, 0);
}

TEST(SharedVerdictTierTest, ClearDropsEverything) {
  SharedVerdictTier tier(16);
  for (std::uint64_t fp = 1; fp <= 64; ++fp) {
    tier.publish(fp, {fp % 2 == 0, {}}, SharedVerdictTier::Evidence::kLint);
  }
  EXPECT_GT(tier.stats().entries, 0);
  tier.clear();
  EXPECT_EQ(tier.stats().entries, 0);
  EXPECT_FALSE(tier.find(1).has_value());
}

// --------------------------------------------------- concurrency hammer

// Four threads publish and probe overlapping fingerprint ranges; run
// under TSan this proves the tier lock actually protects the LRU.
// Assertions are on invariants, not interleavings.
TEST(SharedVerdictTierTest, ConcurrentPublishFindHammer) {
  constexpr std::size_t kCapacity = 128;
  SharedVerdictTier tier(kCapacity);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 256;
  constexpr int kRounds = 200;
  std::atomic<std::int64_t> observedHits{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &tier, &observedHits] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::uint64_t k = static_cast<std::uint64_t>(t); k < kKeys;
             k += kThreads) {
          const std::uint64_t fp = k * 2654435761u + 1;
          tier.publish(fp, {k % 2 == 0, {upo()}},
                       k % 3 == 0 ? SharedVerdictTier::Evidence::kNone
                                  : SharedVerdictTier::Evidence::kCapture);
          const auto hit = tier.find(fp ^ (round % 2));
          if (hit.has_value()) {
            observedHits.fetch_add(1, std::memory_order_relaxed);
            // A served record is always internally consistent.
            if (hit->isAui) {
              EXPECT_FALSE(hit->detections.empty());
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const SharedVerdictTier::Stats stats = tier.stats();
  EXPECT_EQ(stats.hits, observedHits.load());
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::int64_t>(kThreads) * kRounds * (kKeys / kThreads));
  EXPECT_GT(stats.rejectedUnevidenced, 0);
  EXPECT_LE(stats.entries, static_cast<std::int64_t>(kCapacity));
}

}  // namespace
}  // namespace darpa::core

// ------------------------------------------------- fleet-level contracts

namespace darpa::fleet {
namespace {

/// Deterministic, thread-safe detector whose verdict is a pure function of
/// the screen content: screens whose pixel checksum lands even get a
/// confident UPO (an AUI), the rest get nothing. That makes verdicts
/// fingerprint-deterministic — the premise that makes cross-session
/// sharing sound — while keeping them non-trivial (not every screen is
/// positive, so a wrong cache entry would flip a verdict and fail the
/// equivalence check below).
class ParityDetector : public cv::Detector {
 public:
  std::vector<cv::Detection> detect(const gfx::Bitmap& image) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t sum = 0;
    // A sparse deterministic checksum; full scans would dominate runtime.
    for (int y = 0; y < image.height(); y += 37) {
      for (int x = 0; x < image.width(); x += 41) {
        const Color c = image.at(x, y);
        sum += c.r + 3u * c.g + 7u * c.b;
      }
    }
    if (sum % 2 != 0) return {};
    return {cv::Detection{{10, 50, 60, 24}, dataset::BoxLabel::kUpo, 0.9f}};
  }
  double costMacsPerImage() const override { return 1.0e6; }

  [[nodiscard]] std::int64_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<std::int64_t> calls_{0};
};

/// The paper-facing output digest (same axes and fixed-point formatting as
/// fleet_scheduler_test.cpp): exact string equality, not epsilon.
std::string digestOf(const FleetSnapshot& snap) {
  const perf::DeviceModel device;
  const Millis window{static_cast<std::int64_t>(snap.sessions) *
                      snap.simTime.count};
  const perf::PerfMetrics perf = device.withWork(snap.ledger, window);

  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "fig8: analyses=%lld events=%lld exposures=%lld covered=%lld\n"
      "stats: shots=%lld flagged=%lld decorated=%lld lint=%lld "
      "cachehits=%lld tierhits=%lld\n"
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
      static_cast<long long>(snap.stats.lintRuns),
      static_cast<long long>(snap.stats.verdictCacheHits),
      static_cast<long long>(snap.stats.verdictTierHits),
      snap.ledger.totalCpuMs(), static_cast<long long>(snap.ledger.cacheHits()),
      static_cast<long long>(snap.ledger.cacheMisses()),
      static_cast<long long>(snap.ledger.peakFrameBytes()), perf.cpuPercent,
      perf.memoryMb, perf.frameRate, perf.powerMw);
  return buf;
}

/// A SHARED app population: `apps` distinct apps, session i running app
/// i % apps with identical profile and app seed — the workload where a
/// fleet-wide tier can actually share (fingerprints mix the package in,
/// so the fleet's default unique-package-per-session population shares
/// nothing across sessions). Monkey seeds stay per-session (the fleet's
/// own draw): the screen sequence is a pure function of (profile,
/// appSeed), so sessions of one app see identical screens but analyze
/// them at skewed instants — a later session is served the verdict an
/// earlier one already published (a real L2 hit).
std::function<void(int, DeviceSession::Config&)> sharedPopulation(int apps) {
  struct App {
    apps::AppProfile profile;
    std::uint64_t appSeed;
  };
  auto population = std::make_shared<std::vector<App>>();
  Rng rng(977);
  for (int a = 0; a < apps; ++a) {
    App app{apps::randomAppProfile("com.shared.app" + std::to_string(a), rng),
            rng.next()};
    // Aggressive AUI churn on a stable base screen: every popup cycle
    // re-exposes the base fingerprint LATER than its first analysis — the
    // screen-recurrence pattern an L2 exists for. (Fresh
    // benign screens never repeat, so without churn every probe would
    // land before the fingerprint's first publish and the tier could
    // only ever coalesce, never serve.)
    app.profile.screenChangeMeanMs = 6000;
    app.profile.auisPerMinute = 40.0;
    app.profile.auiMinVisibleMs = 600;
    app.profile.auiMaxVisibleMs = 1600;
    population->push_back(std::move(app));
  }
  return [population, apps](int i, DeviceSession::Config& config) {
    const App& app = (*population)[static_cast<std::size_t>(i % apps)];
    config.profile = app.profile;
    config.appSeed = app.appSeed;
  };
}

struct TierRun {
  std::string digest;
  std::vector<std::int64_t> analysesBySession;
  std::vector<std::int64_t> flaggedBySession;
  std::vector<std::int64_t> eventsBySession;
  std::int64_t detectorCalls = 0;
  core::SharedVerdictTier::Stats tier;
};

TierRun runSharedFleet(int workers, bool tierEnabled) {
  ParityDetector detector;

  FleetConfig config;
  config.sessions = 64;
  config.workers = workers;
  config.duration = ms(3000);
  config.sessionTweak = sharedPopulation(/*apps=*/8);
  config.sharedVerdictTier = tierEnabled;
  // A deliberately thrashing L1 (capacity 1, same in the reference run):
  // evicted screens re-probe below it, so the run exercises real
  // L1-miss -> L2-hit -> promote traffic, not just publishes.
  config.darpa.verdictCacheCapacity = 1;

  Fleet fleet(detector, config);
  fleet.run();

  TierRun run;
  run.digest = digestOf(fleet.snapshot());
  for (int i = 0; i < fleet.sessionCount(); ++i) {
    const DeviceSession& session = fleet.session(i);
    run.analysesBySession.push_back(session.stats().analysesRun);
    run.flaggedBySession.push_back(session.stats().auisFlagged);
    run.eventsBySession.push_back(session.eventsEmitted());
  }
  run.detectorCalls = detector.calls();
  run.tier = fleet.snapshot().verdictTier;
  return run;
}

// Contract 1: with the tier DISABLED the tier is invisible — digests
// byte-identical to the W=1 serial reference at W=4 and on a rerun (and, by
// the unchanged code paths, to the pre-tier seed).
TEST(SharedVerdictTierTest, TierDisabledDigestsByteIdenticalAcrossWorkerCounts) {
  const TierRun reference = runSharedFleet(/*workers=*/1, false);
  ASSERT_FALSE(reference.digest.empty());
  EXPECT_EQ(reference.tier.publishes, 0);  // no tier, no tier traffic

  EXPECT_EQ(runSharedFleet(4, false).digest, reference.digest);
  EXPECT_EQ(runSharedFleet(4, false).digest, reference.digest);
}

// Contract 2: with the tier ENABLED every session reaches the same
// per-session verdicts over the same event streams — only who paid for
// them moved: the fleet runs strictly fewer model detects and the tier
// serves real hits.
TEST(SharedVerdictTierTest, TierEnabledIsVerdictEquivalentWithFewerDetects) {
  const TierRun reference = runSharedFleet(/*workers=*/1, false);

  for (const int workers : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "W=" << workers);
    const TierRun tiered = runSharedFleet(workers, true);

    // Same inputs, same decisions — per session, not just in aggregate.
    EXPECT_EQ(tiered.eventsBySession, reference.eventsBySession);
    EXPECT_EQ(tiered.analysesBySession, reference.analysesBySession);
    EXPECT_EQ(tiered.flaggedBySession, reference.flaggedBySession);

    // ...but the fleet paid less for them.
    EXPECT_LT(tiered.detectorCalls, reference.detectorCalls);
    EXPECT_GT(tiered.tier.hits, 0);
    EXPECT_GT(tiered.tier.publishes, 0);
    EXPECT_EQ(tiered.tier.rejectedUnevidenced, 0)
        << "this workload never fails a capture";
  }
}

}  // namespace
}  // namespace darpa::fleet
