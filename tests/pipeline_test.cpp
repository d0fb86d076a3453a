// Unit tests for the analysis pass: the work ledger, the screen
// fingerprint, the verdict cache (hits, invalidation, LRU bounds,
// trusted-package bypass, screenshot-failure accounting), and the step
// routing analyzeNow() records on each path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint.h"
#include "android/system.h"
#include "android/webview.h"
#include "apps/screen_generator.h"
#include "core/darpa_service.h"
#include "core/decoration.h"
#include "core/verdict_cache.h"
#include "core/verdict_tier.h"
#include "core/work_ledger.h"
#include "util/clock.h"
#include "util/rng.h"

namespace darpa::core {
namespace {

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

struct Harness {
  android::AndroidSystem system;
  FakeDetector detector;
  DarpaService service;

  explicit Harness(DarpaConfig config = {},
                   android::WindowManager::Config wmConfig = {})
      : system(wmConfig), service(detector, config) {
    system.accessibility.connect(service);
  }

  /// Replaces the top app window with `root` under `package` and lets the
  /// debounce timer fire.
  void showAndSettle(const std::string& package,
                     std::unique_ptr<android::View> root) {
    if (system.windowManager.appWindowCount() > 0) {
      system.windowManager.popAppWindow();
    }
    system.windowManager.showAppWindow(package, std::move(root), false);
    system.looper.runUntilIdle();
  }
};

cv::Detection upoAt(Rect box) {
  return cv::Detection{box, dataset::BoxLabel::kUpo, 0.9f};
}

/// A deterministic screen; different variants differ in child geometry.
std::unique_ptr<android::View> makeScreen(int variant) {
  auto root = std::make_unique<android::View>();
  root->setBackground(colors::kWhite);
  auto button = std::make_unique<android::Button>();
  button->setFrame({10 + 10 * variant, 50, 60, 24});
  root->addChild(std::move(button));
  return root;
}

// ------------------------------------------------------------ WorkLedger

TEST(WorkLedgerTest, TalliesRunsSkipsAndCpu) {
  WorkLedger ledger;
  ledger.recordEvent();
  ledger.beginAnalysis();
  ledger.recordScreenshot(4096);
  ledger.recordDetect(2e7);
  ledger.recordSkip(Stage::kLint);
  ledger.recordDecoration();
  ledger.recordBypass();
  EXPECT_EQ(ledger.tally(Stage::kEvent).runs, 1);
  EXPECT_EQ(ledger.tally(Stage::kScreenshot).runs, 1);
  EXPECT_DOUBLE_EQ(ledger.tally(Stage::kScreenshot).cpuMs,
                   kStageCosts.screenshotCpuMs);
  EXPECT_EQ(ledger.tally(Stage::kLint).skips, 1);
  EXPECT_EQ(ledger.tally(Stage::kAct).runs, 2);  // decoration + bypass
  EXPECT_EQ(ledger.peakFrameBytes(), 4096);
  EXPECT_EQ(ledger.counts(), (DarpaStats{.eventsReceived = 1,
                                         .analysesRun = 1,
                                         .screenshotsTaken = 1,
                                         .decorationsDrawn = 1,
                                         .bypassClicks = 1}));
  EXPECT_DOUBLE_EQ(ledger.analysisCpuMs(),
                   ledger.totalCpuMs() - ledger.tally(Stage::kEvent).cpuMs);
}

TEST(WorkLedgerTest, MergeAccumulatesCounters) {
  const double tenMsOfMacs = 10.0 * kStageCosts.macsPerCpuMs;
  WorkLedger a;
  for (int i = 0; i < 3; ++i) a.recordDetect(tenMsOfMacs);
  a.recordCacheHit();
  a.recordLint(true);
  WorkLedger b;
  for (int i = 0; i < 2; ++i) b.recordDetect(tenMsOfMacs);
  b.recordCacheMiss();
  b.recordTierHit();
  b.recordLint(false);
  DarpaStats summed = a.counts();
  summed += b.counts();
  a += b;
  EXPECT_EQ(a.tally(Stage::kDetect).runs, 5);
  EXPECT_DOUBLE_EQ(a.tally(Stage::kDetect).cpuMs, 50.0);
  EXPECT_EQ(a.cacheHits(), 2);
  EXPECT_EQ(a.cacheMisses(), 1);
  EXPECT_EQ(a.counts(), summed);
  EXPECT_EQ(a.counts().lintRuns, 2);
  EXPECT_EQ(a.counts().cvSkippedByLint, 1);
}

/// Spins a fixed stretch of host time per detect, so the detect step's
/// wall-clock reading has a known floor.
class SpinDetector : public cv::Detector {
 public:
  static constexpr double kSpinUs = 50.0;

  std::vector<cv::Detection> detect(const gfx::Bitmap&) const override {
    const double start = wallMicros();
    while (wallMicros() - start < kSpinUs) {
    }
    return {upoAt({30, 60, 20, 20})};
  }
  double costMacsPerImage() const override { return 1.0e6; }
};

// The wall-clock axis (StageTally::actualUs) times the steps that run and
// only those: a pass that captures and detects reads host time for both,
// and a repeat served from the verdict cache adds nothing to the steps it
// skips or to the verdict step, whose lookups are priced on the modeled
// axis alone.
TEST(WorkLedgerTest, WallClockAxisTimesOnlyStepsThatRun) {
  android::AndroidSystem system;
  SpinDetector detector;
  DarpaService service(detector);
  system.accessibility.connect(service);
  system.windowManager.showAppWindow("com.app", makeScreen(0), false);
  service.analyzeNow();
  const WorkLedger& ledger = service.ledger();
  ASSERT_EQ(ledger.tally(Stage::kDetect).runs, 1);
  EXPECT_GT(ledger.tally(Stage::kScreenshot).actualUs, 0.0);
  EXPECT_GE(ledger.tally(Stage::kDetect).actualUs, SpinDetector::kSpinUs);

  constexpr Stage kServedPast[] = {Stage::kLint, Stage::kScreenshot,
                                   Stage::kDetect, Stage::kVerdict};
  std::vector<double> before;
  for (const Stage stage : kServedPast) {
    before.push_back(ledger.tally(stage).actualUs);
  }
  service.analyzeNow();
  ASSERT_EQ(ledger.cacheHits(), 1);
  for (std::size_t i = 0; i < before.size(); ++i) {
    SCOPED_TRACE(stageName(kServedPast[i]));
    EXPECT_EQ(ledger.tally(kServedPast[i]).actualUs, before[i]);
  }
}

// ---------------------------------------------------------- VerdictCache

TEST(VerdictCacheTest, LruEvictsOldestAndRefreshesOnFind) {
  VerdictCache cache(2);
  cache.put(1, {true, {}});
  cache.put(2, {false, {}});
  EXPECT_NE(cache.find(1), nullptr);  // refresh 1: now 2 is the LRU entry
  cache.put(3, {true, {}});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.find(2), nullptr);  // 2 was evicted
  ASSERT_NE(cache.find(1), nullptr);
  EXPECT_TRUE(cache.find(1)->isAui);
  ASSERT_NE(cache.find(3), nullptr);
}

TEST(VerdictCacheTest, ZeroCapacityStoresNothing) {
  VerdictCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.put(1, {true, {}});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(1), nullptr);
  // A disabled cache never counts phantom evictions either.
  EXPECT_EQ(cache.evictions(), 0);
}

TEST(VerdictCacheTest, CapacityOneHoldsExactlyTheLastKey) {
  VerdictCache cache(1);
  EXPECT_TRUE(cache.enabled());
  cache.put(1, {true, {upoAt({1, 2, 3, 4})}});
  ASSERT_NE(cache.find(1), nullptr);
  cache.put(2, {false, {}});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.find(1), nullptr);
  ASSERT_NE(cache.find(2), nullptr);
  EXPECT_FALSE(cache.find(2)->isAui);
  // Re-putting the resident key refreshes in place: no eviction churn.
  cache.put(2, {true, {upoAt({5, 6, 7, 8})}});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 1);
  ASSERT_NE(cache.find(2), nullptr);
  EXPECT_TRUE(cache.find(2)->isAui);
}

TEST(VerdictCacheTest, RepeatedFindPutOfSameKeyKeepsLruOrderHonest) {
  VerdictCache cache(2);
  cache.put(1, {true, {}});
  cache.put(2, {false, {}});
  // Hammer key 2 with finds and re-puts: it must stay ONE entry, and the
  // churn must not perturb key 1's slot or fabricate evictions.
  for (int i = 0; i < 8; ++i) {
    ASSERT_NE(cache.find(2), nullptr);
    cache.put(2, {i % 2 == 0, {}});
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0);
  // After the churn, 1 is the least recently used: the next insert evicts
  // it and only it.
  cache.put(3, {true, {}});
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.find(1), nullptr);
  ASSERT_NE(cache.find(2), nullptr);
  EXPECT_FALSE(cache.find(2)->isAui);  // the last re-put (i=7) won
  EXPECT_NE(cache.find(3), nullptr);
}

// 20,000 seeded finds and puts over 8 keys into 3 slots: after every call
// the cache agrees with a reference LRU over std::list (front = most
// recently used) on what find returns, the size and the eviction count.
TEST(VerdictCacheTest, MatchesReferenceLruOverLongMixedSequences) {
  constexpr std::size_t kCapacity = 3;
  constexpr int kKeys = 8;
  constexpr int kCalls = 20'000;
  struct Resident {
    std::uint64_t key;
    bool isAui;
    int putAt;  ///< The put's call index, stored as its detection's x.
  };
  std::list<Resident> reference;
  std::int64_t referenceEvictions = 0;
  VerdictCache cache(kCapacity);
  Rng rng(26);
  for (int call = 0; call < kCalls; ++call) {
    const auto key = static_cast<std::uint64_t>(rng.uniformInt(0, kKeys - 1));
    const auto resident =
        std::find_if(reference.begin(), reference.end(),
                     [key](const Resident& r) { return r.key == key; });
    if (rng.chance(0.5)) {
      const VerdictCache::Entry* found = cache.find(key);
      if (resident == reference.end()) {
        ASSERT_EQ(found, nullptr) << "call " << call;
      } else {
        reference.splice(reference.begin(), reference, resident);
        ASSERT_NE(found, nullptr) << "call " << call;
        ASSERT_EQ(found->isAui, resident->isAui) << "call " << call;
        ASSERT_EQ(found->detections.size(), 1u) << "call " << call;
        ASSERT_EQ(found->detections[0].box.x, resident->putAt)
            << "call " << call;
      }
    } else {
      const bool isAui = rng.chance(0.5);
      cache.put(key, {isAui, {upoAt({call, 0, 1, 1})}});
      if (resident != reference.end()) reference.erase(resident);
      reference.push_front({key, isAui, call});
      if (reference.size() > kCapacity) {
        reference.pop_back();
        ++referenceEvictions;
      }
    }
    ASSERT_EQ(cache.size(), reference.size()) << "call " << call;
    ASSERT_EQ(cache.evictions(), referenceEvictions) << "call " << call;
  }
}

// ----------------------------------------------------------- fingerprint

TEST(FingerprintTest, StableForIdenticalScreensAcrossWindows) {
  android::WindowManager wm;
  wm.showAppWindow("com.app", makeScreen(1), false);
  const std::uint64_t first = wm.topWindowFingerprint();
  wm.popAppWindow();
  wm.showAppWindow("com.app", makeScreen(1), false);
  EXPECT_EQ(wm.topWindowFingerprint(), first);
  wm.popAppWindow();
  wm.showAppWindow("com.app", makeScreen(2), false);
  EXPECT_NE(wm.topWindowFingerprint(), first);
}

TEST(FingerprintTest, IgnoresOverlaysAndDecorationNodes) {
  android::WindowManager wm;
  wm.showAppWindow("com.app", makeScreen(3), false);
  const std::uint64_t clean = wm.topWindowFingerprint();
  // Overlay views (DARPA's decorations live there) are not part of the app
  // window dump, so they cannot shift the fingerprint.
  wm.addOverlay(std::make_unique<DecorationView>(colors::kGreen, 3),
                {20, 20, 40, 40});
  EXPECT_EQ(wm.topWindowFingerprint(), clean);
  // Defense in depth: even a decoration node spliced into the dump itself
  // is skipped by the hash.
  android::UiDump dump = wm.dumpTopWindow();
  android::UiNode decoration;
  decoration.className = "DarpaDecorationView";
  decoration.boundsOnScreen = {20, 20, 40, 40};
  dump.push_back(decoration);
  EXPECT_EQ(android::WindowManager::fingerprint(dump), clean);
}

/// A three-node dump whose middle node sets every hashed field, with a
/// virtual id and a content color so both conditional fields are live.
android::UiDump fieldProbeDump() {
  android::UiDump dump(3);
  dump[0].className = "FrameLayout";
  dump[0].boundsOnScreen = {0, 24, 360, 648};
  dump[2].className = "TextView";
  dump[2].boundsOnScreen = {20, 600, 100, 20};
  dump[2].depth = 1;
  android::UiNode& node = dump[1];
  node.className = "android.widget.Button";
  node.resourceId = "btn_close";
  node.text = "SKIP";
  node.boundsOnScreen = {300, 40, 24, 24};
  node.depth = 2;
  node.clickable = true;
  node.background = Color::rgb(30, 136, 80);
  node.contentColor = colors::kWhite;
  node.hasContentColor = true;
  node.effAlpha = 0.5;
  node.isVirtual = true;
  node.virtualId = "gwd-close";
  return dump;
}

TEST(FingerprintTest, EveryHashedFieldMovesTheFingerprint) {
  using Perturb = void (*)(android::UiNode&);
  const std::pair<const char*, Perturb> perturbations[] = {
      {"x", [](android::UiNode& n) { n.boundsOnScreen.x += 1; }},
      {"y", [](android::UiNode& n) { n.boundsOnScreen.y += 1; }},
      {"width", [](android::UiNode& n) { n.boundsOnScreen.width += 1; }},
      {"height", [](android::UiNode& n) { n.boundsOnScreen.height += 1; }},
      {"depth", [](android::UiNode& n) { n.depth += 1; }},
      {"clickable", [](android::UiNode& n) { n.clickable = !n.clickable; }},
      {"background",
       [](android::UiNode& n) { n.background = Color::rgb(30, 136, 81); }},
      {"contentColor",
       [](android::UiNode& n) { n.contentColor = Color::rgb(254, 255, 255); }},
      {"hasContentColor",
       [](android::UiNode& n) { n.hasContentColor = false; }},
      {"effAlpha", [](android::UiNode& n) { n.effAlpha += 1.0 / 1024.0; }},
      {"className", [](android::UiNode& n) { n.className += "X"; }},
      {"resourceId", [](android::UiNode& n) { n.resourceId += "X"; }},
      {"text", [](android::UiNode& n) { n.text += "X"; }},
      {"virtualId", [](android::UiNode& n) { n.virtualId += "X"; }},
      {"isVirtual", [](android::UiNode& n) { n.isVirtual = false; }},
  };
  const std::uint64_t base =
      android::WindowManager::fingerprint(fieldProbeDump());
  for (const auto& [field, perturb] : perturbations) {
    android::UiDump dump = fieldProbeDump();
    perturb(dump[1]);
    EXPECT_NE(android::WindowManager::fingerprint(dump), base) << field;
  }
}

TEST(FingerprintTest, CharactersCannotMoveAcrossStringBoundaries) {
  const auto withStrings = [](std::string className, std::string resourceId,
                              std::string text) {
    android::UiDump dump = fieldProbeDump();
    dump[1].className = std::move(className);
    dump[1].resourceId = std::move(resourceId);
    dump[1].text = std::move(text);
    return android::WindowManager::fingerprint(dump);
  };
  EXPECT_NE(withStrings("ab", "c", ""), withStrings("a", "bc", ""));
  EXPECT_NE(withStrings("", "ab", "c"), withStrings("", "a", "bc"));
  EXPECT_NE(withStrings("", "", "abc"), withStrings("abc", "", ""));
  // Past one 8-byte word: a long class name against a split of it.
  EXPECT_NE(withStrings("android.widget.Button", "", ""),
            withStrings("android.", "widget.Button", ""));
}

/// The live walk's fingerprint of a one-window screen, checked against
/// fingerprint(dumpTopWindow()) of the same window.
std::uint64_t liveFingerprint(std::unique_ptr<android::View> root) {
  android::WindowManager wm;
  wm.showAppWindow("com.app", std::move(root), false);
  const std::uint64_t live = wm.topWindowFingerprint();
  EXPECT_EQ(live, android::WindowManager::fingerprint(wm.dumpTopWindow()));
  return live;
}

/// A screen whose one TextView carries `resourceId` and `text`.
std::unique_ptr<android::View> textScreen(const std::string& resourceId,
                                          const std::string& text) {
  auto root = std::make_unique<android::View>();
  auto label = std::make_unique<android::TextView>();
  label->setFrame({20, 40, 200, 24});
  label->setResourceId(resourceId);
  label->setText(text);
  root->addChild(std::move(label));
  return root;
}

TEST(FingerprintTest, EveryStringTailAtEveryLength) {
  // The hash reads a string as whole 8-byte words plus one tail word, which
  // comes from three single bytes below 4 bytes, two 4-byte loads below 8
  // and the last 8 bytes from 8 on. Lengths 0-40 reach every tail with 0-4
  // whole words before it. At each length a one-byte change at any
  // position, and an appended '\0', must move the fingerprint. The all-'\0'
  // strings differ only in length, so they also show that the length is
  // hashed.
  using Probe = std::uint64_t (*)(const std::string&);
  const std::pair<const char*, Probe> fields[] = {
      {"resourceId",
       [](const std::string& s) { return liveFingerprint(textScreen(s, "")); }},
      {"text",
       [](const std::string& s) {
         return liveFingerprint(textScreen("label", s));
       }},
      {"virtualId",
       [](const std::string& s) {
         auto root = std::make_unique<android::View>();
         auto web = std::make_unique<android::WebView>();
         web->setFrame({0, 0, 300, 400});
         android::VirtualNode page;
         page.role = android::VirtualRole::kWebArea;
         page.bounds = {0, 0, 300, 400};
         android::VirtualNode button;
         button.role = android::VirtualRole::kButton;
         button.virtualId = s;
         button.bounds = {260, 10, 30, 30};
         page.children.push_back(std::move(button));
         web->setPage(std::move(page));
         root->addChild(std::move(web));
         return liveFingerprint(std::move(root));
       }},
      {"className",
       [](const std::string& s) {
         android::UiDump dump = fieldProbeDump();
         dump[1].className = s;
         return android::WindowManager::fingerprint(dump);
       }},
  };
  constexpr std::size_t kMaxLength = 40;
  for (const auto& [field, probe] : fields) {
    std::vector<std::string> misses;
    for (std::size_t n = 0; n <= kMaxLength; ++n) {
      std::string letters(n, 'a');
      for (std::size_t i = 0; i < n; ++i) {
        letters[i] = static_cast<char>('a' + i % 26);
      }
      for (const std::string& base : {letters, std::string(n, '\0')}) {
        const std::string kind = base == letters ? "letters" : "zeros";
        const std::uint64_t fingerprint = probe(base);
        for (std::size_t i = 0; i < n; ++i) {
          std::string changed = base;
          changed[i] = static_cast<char>(changed[i] ^ 1);
          if (probe(changed) == fingerprint) {
            misses.push_back(kind + " length " + std::to_string(n) +
                             ": byte " + std::to_string(i));
          }
        }
        if (probe(base + '\0') == fingerprint) {
          misses.push_back(kind + " length " + std::to_string(n) +
                           ": appended '\\0'");
        }
      }
    }
    EXPECT_TRUE(misses.empty())
        << field << ": " << misses.size() << " changes left the fingerprint, "
        << "first: " << misses.front();
  }
}

TEST(FingerprintTest, DeepNativeTreeWalksInPreOrder) {
  // The walk keeps the children still to come on an explicit stack that
  // starts at 16 levels and grows mid-walk. A 300-deep chain of views, each
  // with a text leaf after its nested child (leaf 100 hidden, so it
  // prunes), holds every level on the stack at once: the dump must list
  // the chain, then the leaves from the deepest up, and the live walk must
  // equal the dump's hash.
  constexpr int kDepth = 300;
  constexpr int kHidden = 100;
  auto root = std::make_unique<android::View>();
  android::View* view = root.get();
  for (int k = 0; k < kDepth; ++k) {
    android::View* next =
        k + 1 < kDepth ? view->addChild(std::make_unique<android::View>())
                       : nullptr;
    auto leaf = std::make_unique<android::TextView>();
    leaf->setText("leaf " + std::to_string(k));
    leaf->setVisible(k != kHidden);
    view->addChild(std::move(leaf));
    view = next;
  }
  android::WindowManager wm;
  wm.showAppWindow("com.app", std::move(root), false);
  const android::UiDump dump = wm.dumpTopWindow();
  ASSERT_EQ(dump.size(), std::size_t{2 * kDepth - 1});
  std::size_t i = 0;
  for (int k = 0; k < kDepth; ++k, ++i) {
    ASSERT_EQ(dump[i].depth, k) << "chain view " << k;
    ASSERT_TRUE(dump[i].text.empty()) << "chain view " << k;
  }
  for (int k = kDepth - 1; k >= 0; --k) {
    if (k == kHidden) continue;
    ASSERT_EQ(dump[i].text, "leaf " + std::to_string(k)) << "node " << i;
    ASSERT_EQ(dump[i].depth, k + 1) << "node " << i;
    ++i;
  }
  EXPECT_EQ(wm.topWindowFingerprint(),
            android::WindowManager::fingerprint(dump));
}

/// Everything the fingerprint promises to see, as a byte string: equal
/// strings mean field-by-field equal dumps up to the hash's declared
/// equivalences (alpha at 1/1024, content color only when present, the
/// virtual id only on virtual nodes).
std::string hashedFields(const android::UiDump& dump) {
  std::ostringstream out;
  const auto str = [&](const std::string& s) {
    out << s.size() << ':' << s << ';';
  };
  for (const android::UiNode& n : dump) {
    str(n.className);
    str(n.resourceId);
    str(n.text);
    out << n.boundsOnScreen.x << ',' << n.boundsOnScreen.y << ','
        << n.boundsOnScreen.width << ',' << n.boundsOnScreen.height << ','
        << n.depth << ',' << n.clickable << ',' << n.background.toArgb()
        << ','
        << (n.hasContentColor ? std::int64_t{n.contentColor.toArgb()} : -1)
        << ',' << static_cast<std::int64_t>(n.effAlpha * 1024.0) << ','
        << n.isVirtual << ';';
    if (n.isVirtual) str(n.virtualId);
  }
  return out.str();
}

TEST(FingerprintTest, DistinctGeneratedScreensNeverCollide) {
  // 2,400 fixed-seed screens: every fourth generator draws from a small
  // seed pool, so exact repeats exist and must hash equal, and the rest
  // must keep every distinct screen apart.
  apps::ScreenGenerator::Params native;
  apps::ScreenGenerator::Params hybrid;
  hybrid.webViewAuiProb = 0.75;
  android::WindowManager wm;
  std::set<std::string> distinctDumps;
  std::set<std::uint64_t> distinctFingerprints;
  for (int i = 0; i < 2400; ++i) {
    const bool repeat = i % 4 == 0;
    const std::uint64_t seed = repeat ? 9000 + (i / 4) % 40 : 5000 + i;
    apps::ScreenGenerator gen(i % 2 == 0 ? native : hybrid, seed);
    apps::GeneratedScreen screen;
    switch (i % 3) {
      case 0: screen = gen.makeBenign(); break;
      case 1: screen = gen.makeHardNegative(); break;
      default: screen = gen.makeAui(gen.randomSpec()); break;
    }
    if (wm.appWindowCount() > 0) wm.popAppWindow();
    wm.showAppWindow("com.gen", std::move(screen.root), false);
    const android::UiDump dump = wm.dumpTopWindow();
    distinctDumps.insert(hashedFields(dump));
    distinctFingerprints.insert(android::WindowManager::fingerprint(dump));
  }
  EXPECT_LT(distinctDumps.size(), 2400u);  // the repeats did repeat
  EXPECT_EQ(distinctFingerprints.size(), distinctDumps.size());
}

// -------------------------------------------------- pipeline + cache

TEST(PipelineCacheTest, RepeatScreenServedFromCache) {
  Harness h;
  h.detector.detections = {upoAt({30, 60, 20, 20})};
  h.showAndSettle("com.app", makeScreen(0));
  EXPECT_EQ(h.detector.calls, 1);
  EXPECT_EQ(h.service.stats().screenshotsTaken, 1);
  EXPECT_TRUE(h.service.lastWasAui());

  // Same screen re-stabilizes: the verdict comes from the cache, without
  // lint, screenshot, or CV work — but with identical detections.
  h.system.windowManager.notifyContentChanged();
  h.system.looper.runUntilIdle();
  EXPECT_EQ(h.service.stats().analysesRun, 2);
  EXPECT_EQ(h.service.stats().verdictCacheHits, 1);
  EXPECT_EQ(h.detector.calls, 1);
  EXPECT_EQ(h.service.stats().screenshotsTaken, 1);
  EXPECT_TRUE(h.service.lastWasAui());
  ASSERT_EQ(h.service.lastDetections().size(), 1u);
  EXPECT_EQ(h.service.lastDetections()[0].box, Rect({30, 60, 20, 20}));
  // The ledger shows the skip routing.
  EXPECT_GE(h.service.ledger().tally(Stage::kScreenshot).skips, 1);
  EXPECT_GE(h.service.ledger().tally(Stage::kDetect).skips, 1);
  EXPECT_EQ(h.service.ledger().cacheHits(), 1);
}

TEST(PipelineCacheTest, RealScreenChangeInvalidates) {
  Harness h;
  h.showAndSettle("com.app", makeScreen(0));
  EXPECT_EQ(h.detector.calls, 1);
  // A structurally different screen must re-run the full pipeline.
  h.showAndSettle("com.app", makeScreen(1));
  EXPECT_EQ(h.detector.calls, 2);
  EXPECT_EQ(h.service.stats().verdictCacheHits, 0);
  EXPECT_EQ(h.service.stats().screenshotsTaken, 2);
}

TEST(PipelineCacheTest, OwnDecorationsDoNotPoisonCache) {
  Harness h;
  h.detector.detections = {upoAt({30, 60, 20, 20})};
  h.showAndSettle("com.app", makeScreen(0));
  EXPECT_EQ(h.system.windowManager.overlayCount(), 1u);  // decorated
  // The decorated screen re-stabilizes. If DARPA's own overlay entered the
  // fingerprint, this would miss the cache (decorations are cleared before
  // each pass) and CV would re-run. It must hit.
  h.system.windowManager.notifyContentChanged();
  h.system.looper.runUntilIdle();
  EXPECT_EQ(h.service.stats().verdictCacheHits, 1);
  EXPECT_EQ(h.detector.calls, 1);
  // The cached AUI verdict redraws the decoration (it was cleared).
  EXPECT_EQ(h.system.windowManager.overlayCount(), 1u);
}

TEST(PipelineCacheTest, LruEvictionStaysBounded) {
  DarpaConfig config;
  config.verdictCacheCapacity = 2;
  Harness h(config);
  for (int round = 0; round < 2; ++round) {
    for (int variant = 0; variant < 3; ++variant) {
      h.showAndSettle("com.app", makeScreen(variant));
      EXPECT_LE(h.service.verdictCache().size(), 2u);
    }
  }
  EXPECT_EQ(h.service.verdictCache().capacity(), 2u);
  EXPECT_GT(h.service.verdictCache().evictions(), 0);
  // Three screens cycling through a 2-entry cache: every revisit was
  // already evicted, so the detector ran every time.
  EXPECT_EQ(h.detector.calls, 6);
  EXPECT_EQ(h.service.stats().verdictCacheHits, 0);
}

TEST(PipelineCacheTest, TrustedPackageNeverTouchesCacheOrPipeline) {
  DarpaConfig config;
  config.trustedPackages = {"com.trusted"};
  Harness h(config);
  h.showAndSettle("com.untrusted", makeScreen(0));
  const auto analysesBefore = h.service.stats().analysesRun;
  EXPECT_GE(analysesBefore, 1);
  const std::size_t cacheBefore = h.service.verdictCache().size();

  // A trusted app reaches the foreground. Its events are filtered at
  // delivery, and even a directly forced analysis must bail before the
  // cache: trusted screens are neither probed nor seeded.
  h.showAndSettle("com.trusted", makeScreen(1));
  h.service.analyzeNow();
  EXPECT_EQ(h.service.stats().analysesRun, analysesBefore);
  EXPECT_EQ(h.service.verdictCache().size(), cacheBefore);
  EXPECT_EQ(h.service.stats().verdictCacheHits, 0);
}

TEST(PipelineCacheTest, FailedScreenshotIsNotCountedOrCached) {
  // A 0x0 display: takeScreenshot() yields an empty bitmap, the §IV-B
  // capture failure. The analysis runs but takes no screenshot, bills no
  // screenshot work, runs no CV, and must not seed the cache with the
  // evidence-free verdict.
  Harness h({}, android::WindowManager::Config{{0, 0}, 0, 0});
  h.service.analyzeNow();
  EXPECT_EQ(h.service.stats().analysesRun, 1);
  EXPECT_EQ(h.service.stats().screenshotsTaken, 0);
  EXPECT_EQ(h.detector.calls, 0);
  EXPECT_EQ(h.service.ledger().tally(Stage::kScreenshot).runs, 0);
  EXPECT_EQ(h.service.verdictCache().size(), 0u);
  h.service.analyzeNow();
  EXPECT_EQ(h.service.stats().verdictCacheHits, 0);
}

// ------------------------------------------------------ step routing

/// {runs, skips} of lint, screenshot, detect, verdict and act, in order.
using Routing = std::vector<std::pair<std::int64_t, std::int64_t>>;

Routing routingOf(const WorkLedger& ledger) {
  Routing routing;
  for (const Stage stage : {Stage::kLint, Stage::kScreenshot, Stage::kDetect,
                            Stage::kVerdict, Stage::kAct}) {
    routing.emplace_back(ledger.tally(stage).runs, ledger.tally(stage).skips);
  }
  return routing;
}

/// The counts that share a ledger call with a stage run agree with it.
void expectCountsMatchTallies(const WorkLedger& ledger) {
  const DarpaStats& counts = ledger.counts();
  EXPECT_EQ(counts.eventsReceived, ledger.tally(Stage::kEvent).runs);
  EXPECT_EQ(counts.screenshotsTaken, ledger.tally(Stage::kScreenshot).runs);
  EXPECT_EQ(counts.lintRuns, ledger.tally(Stage::kLint).runs);
}

// Pins which steps run, which are skipped and how many lookups are priced
// on every route through analyzeNow(). Verdict runs count each cache
// lookup plus the verdict merge; act runs count decorations drawn.
TEST(AnalysisRoutingTest, LedgerRecordsEveryStepOnEachPath) {
  {
    SCOPED_TRACE("full CV pass, then a repeat served from L1");
    Harness h;
    h.detector.detections = {upoAt({30, 60, 20, 20})};
    h.system.windowManager.showAppWindow("com.app", makeScreen(0), false);
    h.service.analyzeNow();
    const WorkLedger& ledger = h.service.ledger();
    EXPECT_EQ(routingOf(ledger),
              (Routing{{0, 1}, {1, 0}, {1, 0}, {2, 0}, {1, 0}}));
    expectCountsMatchTallies(ledger);
    EXPECT_EQ(ledger.cacheHits(), 0);
    EXPECT_EQ(ledger.cacheMisses(), 1);
    h.service.analyzeNow();
    EXPECT_EQ(routingOf(ledger),
              (Routing{{0, 2}, {1, 1}, {1, 1}, {3, 1}, {2, 0}}));
    expectCountsMatchTallies(ledger);
    EXPECT_EQ(ledger.cacheHits(), 1);
    EXPECT_EQ(ledger.cacheMisses(), 1);
    EXPECT_EQ(h.service.stats().verdictCacheHits, 1);
    EXPECT_EQ(h.detector.calls, 1);
    // Delivered events are counted and priced by the same call.
    h.system.windowManager.notifyContentChanged();
    h.system.looper.runUntilIdle();
    EXPECT_GT(ledger.counts().eventsReceived, 0);
    expectCountsMatchTallies(ledger);
  }
  {
    SCOPED_TRACE("L2 hit on a fresh service, then an L1 hit");
    SharedVerdictTier tier;
    DarpaConfig config;
    config.verdictTier = &tier;
    Harness first(config);
    first.detector.detections = {upoAt({30, 60, 20, 20})};
    first.system.windowManager.showAppWindow("com.app", makeScreen(0), false);
    first.service.analyzeNow();
    ASSERT_EQ(tier.stats().publishes, 1);

    Harness fresh(config);
    fresh.system.windowManager.showAppWindow("com.app", makeScreen(0), false);
    fresh.service.analyzeNow();
    const WorkLedger& ledger = fresh.service.ledger();
    // L1 miss and L2 hit: two lookups priced, the verdict merge skipped.
    EXPECT_EQ(routingOf(ledger),
              (Routing{{0, 1}, {0, 1}, {0, 1}, {2, 1}, {1, 0}}));
    expectCountsMatchTallies(ledger);
    EXPECT_EQ(ledger.cacheHits(), 1);
    EXPECT_EQ(ledger.cacheMisses(), 0);
    EXPECT_EQ(fresh.service.stats().verdictTierHits, 1);
    EXPECT_EQ(fresh.service.stats().verdictCacheHits, 0);
    // The L2 hit was promoted, so the repeat is an L1 hit with no detect.
    fresh.service.analyzeNow();
    EXPECT_EQ(routingOf(ledger),
              (Routing{{0, 2}, {0, 2}, {0, 2}, {3, 2}, {2, 0}}));
    expectCountsMatchTallies(ledger);
    EXPECT_EQ(ledger.cacheHits(), 2);
    EXPECT_EQ(ledger.cacheMisses(), 0);
    EXPECT_EQ(fresh.service.stats().verdictTierHits, 1);
    EXPECT_EQ(fresh.service.stats().verdictCacheHits, 1);
    EXPECT_EQ(fresh.detector.calls, 0);
  }
  {
    SCOPED_TRACE("confident lint clear");
    const analysis::LintEngine engine =
        analysis::LintEngine::withDefaultRules();
    DarpaConfig config;
    config.lintPrefilter = &engine;
    Harness h(config);
    auto root = std::make_unique<android::View>();  // static, no options
    root->setBackground(colors::kWhite);
    h.system.windowManager.showAppWindow("com.app", std::move(root), false);
    h.service.analyzeNow();
    const WorkLedger& ledger = h.service.ledger();
    EXPECT_EQ(routingOf(ledger),
              (Routing{{1, 0}, {0, 1}, {0, 1}, {2, 0}, {0, 1}}));
    expectCountsMatchTallies(ledger);
    EXPECT_EQ(ledger.cacheHits(), 0);
    EXPECT_EQ(ledger.cacheMisses(), 1);
    EXPECT_EQ(h.service.stats().cvSkippedByLint, 1);
    EXPECT_EQ(h.detector.calls, 0);
  }
  {
    SCOPED_TRACE("failed capture with a tier wired");
    SharedVerdictTier tier;
    DarpaConfig config;
    config.verdictTier = &tier;
    Harness h(config, android::WindowManager::Config{{0, 0}, 0, 0});
    h.service.analyzeNow();
    const WorkLedger& ledger = h.service.ledger();
    EXPECT_EQ(routingOf(ledger),
              (Routing{{0, 1}, {0, 1}, {0, 1}, {3, 0}, {0, 1}}));
    expectCountsMatchTallies(ledger);
    EXPECT_EQ(ledger.cacheHits(), 0);
    EXPECT_EQ(ledger.cacheMisses(), 1);
    // Neither tier keeps the evidence-free verdict.
    const SharedVerdictTier::Stats stats = tier.stats();
    EXPECT_EQ(stats.publishes, 0);
    EXPECT_EQ(stats.entries, 0);
    h.service.analyzeNow();
    EXPECT_EQ(ledger.cacheHits(), 0);
    EXPECT_EQ(h.service.stats().verdictCacheHits, 0);
    EXPECT_EQ(h.service.stats().verdictTierHits, 0);
    expectCountsMatchTallies(ledger);
  }
}

// ------------------------------------------- anchor-overlay measurement

TEST(ActPathTest, DecorationPathMeasuresAnchorOnce) {
  Harness h;
  h.detector.detections = {upoAt({30, 60, 20, 20})};
  h.showAndSettle("com.app", makeScreen(0));
  EXPECT_EQ(h.service.stats().anchorMeasurements, 1);
}

TEST(ActPathTest, AutoBypassSkipsAnchorMeasurement) {
  DarpaConfig config;
  config.autoBypass = true;
  Harness h(config);
  h.detector.detections = {upoAt({30, 60, 20, 20})};
  h.showAndSettle("com.app", makeScreen(0));
  EXPECT_GT(h.service.stats().auisFlagged, 0);
  EXPECT_EQ(h.service.stats().anchorMeasurements, 0);
}

TEST(ActPathTest, FlaggingWithoutDecorationSkipsAnchor) {
  DarpaConfig config;
  config.decorate = false;
  Harness h(config);
  h.detector.detections = {upoAt({30, 60, 20, 20})};
  h.showAndSettle("com.app", makeScreen(0));
  EXPECT_GT(h.service.stats().auisFlagged, 0);
  EXPECT_EQ(h.service.stats().anchorMeasurements, 0);
}

}  // namespace
}  // namespace darpa::core
