// SharedVerdictTier tests: the L2's eviction unit contracts, a concurrent
// publish/find hammer and a lock-free reader hammer under replacement and
// eviction churn (the TSan lane runs this suite), and the tier's two
// fleet-level contracts:
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
#include <string>
#include <thread>
#include <vector>

#include "core/verdict_tier.h"
#include "fleet/fleet.h"
#include "fleet_digest.h"
#include "util/rng.h"

namespace darpa::core {
namespace {

cv::Detection upo() {
  return cv::Detection{{10, 50, 60, 24}, dataset::BoxLabel::kUpo, 0.9f};
}

// ------------------------------------------------------- unit contracts

TEST(SharedVerdictTierTest, PublishFindLruAndEvictions) {
  SharedVerdictTier tier(2);
  tier.publish(1, {true, {upo()}});
  tier.publish(2, {false, {}});
  ASSERT_TRUE(tier.find(1).has_value());  // refresh 1: now 2 is the LRU
  tier.publish(3, {true, {upo()}});

  EXPECT_FALSE(tier.find(2).has_value());  // 2 was evicted
  const auto one = tier.find(1);
  ASSERT_TRUE(one.has_value());
  EXPECT_TRUE(one->isAui);
  ASSERT_EQ(one->detections.size(), 1u);
  EXPECT_TRUE(tier.find(3).has_value());

  // Re-publishing refreshes value and recency instead of duplicating.
  tier.publish(1, {false, {}});
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

TEST(SharedVerdictTierTest, ZeroCapacityDisablesWithoutUnwiring) {
  SharedVerdictTier tier(0);
  tier.publish(1, {true, {upo()}});
  EXPECT_FALSE(tier.find(1).has_value());
  const SharedVerdictTier::Stats stats = tier.stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.publishes, 0);
  EXPECT_EQ(stats.hits + stats.misses, 0);
}

// --------------------------------------------------- concurrency hammer

// Four threads publish and probe overlapping fingerprint ranges; run
// under TSan this proves publishes serialize and lock-free finds do not
// race them. Assertions are on invariants, not interleavings.
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
          tier.publish(fp, {k % 2 == 0, {upo()}});
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
  EXPECT_EQ(stats.publishes,
            static_cast<std::int64_t>(kThreads) * kRounds * (kKeys / kThreads));
  EXPECT_LE(stats.entries, static_cast<std::int64_t>(kCapacity));
}

/// The record published for version `version` of key `key`: 1-4
/// detections that each carry the key, the version, the count and their
/// index, so a reader can tell a whole record from a torn, mixed or freed
/// one.
VerdictCache::Entry versionedRecord(int key, int version) {
  const int n = 1 + (key + version) % 4;
  VerdictCache::Entry entry{version % 2 == 0, {}};
  for (int i = 0; i < n; ++i) {
    entry.detections.push_back(cv::Detection{
        {key, version, n, i},
        version % 2 == 0 ? dataset::BoxLabel::kUpo : dataset::BoxLabel::kAgo,
        0.5f});
  }
  return entry;
}

/// The version a served record claims, or -1 when it is not one whole
/// versionedRecord() of `key`.
int servedVersion(int key, const VerdictCache::Entry& entry) {
  if (entry.detections.empty()) return -1;
  const int version = entry.detections.front().box.y;
  if (entry.isAui != (version % 2 == 0)) return -1;
  const int n = 1 + (key + version) % 4;
  if (static_cast<int>(entry.detections.size()) != n) return -1;
  for (int i = 0; i < n; ++i) {
    const cv::Detection& d = entry.detections[static_cast<std::size_t>(i)];
    if (d.box.x != key || d.box.y != version || d.box.width != n ||
        d.box.height != i) {
      return -1;
    }
  }
  return version;
}

// Lock-free readers against publishers that replace and evict: two
// publishers each own half of 3 x capacity keys and republish them with
// rising versions (so the clock evicts and the table is rebuilt over and
// over) while three readers copy records out. Every served record must be
// one whole version of the probed key, and each reader must never see a
// key's version go backwards: a record freed while a reader copies it, a
// torn slot or a table swapped in before its slots were written fails
// here, and under TSan (ci.sh runs this suite) as a race.
TEST(SharedVerdictTierTest, LockFreeReadersSeeWholeRecordsUnderChurn) {
  constexpr std::size_t kCapacity = 32;
  constexpr int kKeys = 96;
  constexpr int kPublishers = 2;
  constexpr int kReaders = 3;
  constexpr int kVersions = 1000;
  SharedVerdictTier tier(kCapacity);
  const auto fingerprint = [](int key) {
    return static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL + 11;
  };

  std::atomic<int> publishersLeft{kPublishers};
  std::atomic<std::int64_t> finds{0};
  std::atomic<std::int64_t> hits{0};
  std::atomic<std::int64_t> broken{0};
  std::atomic<std::int64_t> backwards{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kPublishers; ++p) {
    threads.emplace_back([p, &tier, &publishersLeft, &fingerprint] {
      for (int version = 0; version < kVersions; ++version) {
        for (int key = p; key < kKeys; key += kPublishers) {
          tier.publish(fingerprint(key), versionedRecord(key, version));
        }
      }
      publishersLeft.fetch_sub(1, std::memory_order_release);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      std::vector<int> lastSeen(kKeys, -1);
      std::int64_t myFinds = 0;
      std::int64_t myHits = 0;
      while (publishersLeft.load(std::memory_order_acquire) > 0) {
        for (int key = 0; key < kKeys; ++key) {
          ++myFinds;
          const auto hit = tier.find(fingerprint(key));
          if (!hit.has_value()) continue;
          ++myHits;
          const int version = servedVersion(key, *hit);
          if (version < 0) {
            broken.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          int& last = lastSeen[static_cast<std::size_t>(key)];
          if (version < last) backwards.fetch_add(1, std::memory_order_relaxed);
          last = version;
        }
      }
      finds.fetch_add(myFinds, std::memory_order_relaxed);
      hits.fetch_add(myHits, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(broken.load(), 0);
  EXPECT_EQ(backwards.load(), 0);
  EXPECT_GT(hits.load(), 0);
  const SharedVerdictTier::Stats stats = tier.stats();
  EXPECT_EQ(stats.hits, hits.load());
  EXPECT_EQ(stats.hits + stats.misses, finds.load());
  EXPECT_EQ(stats.publishes,
            static_cast<std::int64_t>(kKeys) * kVersions);
  EXPECT_GT(stats.evictions, 0);
  EXPECT_EQ(stats.entries, static_cast<std::int64_t>(kCapacity));

  // After the churn every resident key serves its last version.
  for (int key = 0; key < kKeys; ++key) {
    const auto hit = tier.find(fingerprint(key));
    if (hit.has_value()) {
      EXPECT_EQ(servedVersion(key, *hit), kVersions - 1);
    }
  }
}

// A key evicted and published again takes its old slot back, and the clock
// keeps the live count at capacity through many table rebuilds.
TEST(SharedVerdictTierTest, RepublishedKeysSurviveTableRebuilds) {
  SharedVerdictTier tier(4);
  for (int round = 0; round < 50; ++round) {
    for (int key = 0; key < 12; ++key) {
      tier.publish(static_cast<std::uint64_t>(key),
                   versionedRecord(key, round));
      const auto hit = tier.find(static_cast<std::uint64_t>(key));
      ASSERT_TRUE(hit.has_value()) << "round " << round << " key " << key;
      EXPECT_EQ(servedVersion(key, *hit), round);
    }
  }
  const SharedVerdictTier::Stats stats = tier.stats();
  EXPECT_EQ(stats.entries, 4);
  EXPECT_EQ(stats.publishes, 600);
  EXPECT_GT(stats.evictions, 500);
  EXPECT_LE(stats.evictions, 596);
  EXPECT_EQ(stats.misses, 0);
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
  }
}

}  // namespace
}  // namespace darpa::fleet
