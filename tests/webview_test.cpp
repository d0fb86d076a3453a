// Tests for the simulated WebView and its virtual accessibility subtree:
// hybrid dump shape, the fingerprint's resource-id independence (property
// tests), iterative traversal over hostile page shapes, the FraudDroid
// id-coverage telemetry, lint's graceful degradation on virtual nodes, and
// decoration targeting through the hosting native view.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint.h"
#include "android/system.h"
#include "android/webview.h"
#include "apps/screen_generator.h"
#include "baselines/frauddroid.h"
#include "core/darpa_service.h"
#include "core/verdict_cache.h"
#include "core/verdict_tier.h"
#include "dataset/dataset.h"
#include "util/rng.h"

namespace darpa {
namespace {

using android::UiDump;
using android::UiNode;
using android::VirtualNode;
using android::VirtualRole;
using android::WebView;

VirtualNode vnode(VirtualRole role, std::string id, Rect bounds,
                  bool clickable = false, std::string text = {}) {
  VirtualNode node;
  node.role = role;
  node.virtualId = std::move(id);
  node.bounds = bounds;
  node.clickable = clickable;
  node.text = std::move(text);
  return node;
}

/// A white screen hosting one WebView at `webFrame` with `page` loaded.
std::unique_ptr<android::View> webScreen(Size frame, Rect webFrame,
                                         VirtualNode page,
                                         WebView** outWeb = nullptr) {
  auto root = std::make_unique<android::View>();
  root->setFrame({0, 0, frame.width, frame.height});
  root->setBackground(colors::kWhite);
  auto web = std::make_unique<WebView>();
  web->setFrame(webFrame);
  web->setPage(std::move(page));
  auto* webPtr =
      static_cast<WebView*>(root->addChild(std::move(web)));
  if (outWeb != nullptr) *outWeb = webPtr;
  return root;
}

/// Small ad-like page: full-page area, dim overlay, CTA button, close div.
VirtualNode interstitialPage(Size pageSize) {
  VirtualNode page = vnode(VirtualRole::kWebArea, "page",
                           {0, 0, pageSize.width, pageSize.height});
  VirtualNode overlay = vnode(VirtualRole::kGenericContainer, "gwd-overlay",
                              {0, 0, pageSize.width, pageSize.height});
  overlay.background = Color::rgba(0, 0, 0, 140);
  VirtualNode cta = vnode(VirtualRole::kButton, "gwd-cta",
                          {40, 120, 160, 48}, /*clickable=*/true, "INSTALL");
  cta.background = Color::rgb(30, 136, 80);
  VirtualNode close = vnode(VirtualRole::kGenericContainer, "gwd-close",
                            {pageSize.width - 26, 6, 20, 20},
                            /*clickable=*/true);
  close.crossGlyph = true;
  overlay.children.push_back(std::move(cta));
  overlay.children.push_back(std::move(close));
  page.children.push_back(std::move(overlay));
  return page;
}

const UiNode* findVirtualNode(const UiDump& dump, std::string_view id) {
  for (const UiNode& node : dump) {
    if (node.isVirtual && node.virtualId == id) return &node;
  }
  return nullptr;
}

int indexOfClass(const UiDump& dump, std::string_view className) {
  for (std::size_t i = 0; i < dump.size(); ++i) {
    if (dump[i].className == className) return static_cast<int>(i);
  }
  return -1;
}

// -------------------------------------------------- hybrid dump shape

TEST(WebViewTest, DumpContainsVirtualSubtreeWithoutResourceIds) {
  android::AndroidSystem system;
  const Rect frame = system.windowManager.appFrame(false);
  system.windowManager.showAppWindow(
      "com.web",
      webScreen({frame.width, frame.height}, {20, 40, 280, 400},
                interstitialPage({280, 400})),
      false);
  const UiDump dump = system.windowManager.dumpTopWindow();

  const int hostIdx = indexOfClass(dump, "android.webkit.WebView");
  ASSERT_GE(hostIdx, 0);
  const UiNode& host = dump[static_cast<std::size_t>(hostIdx)];
  EXPECT_FALSE(host.isVirtual);  // the host itself is a native view

  const UiNode* cta = findVirtualNode(dump, "gwd-cta");
  ASSERT_NE(cta, nullptr);
  EXPECT_TRUE(cta->isVirtual);
  EXPECT_TRUE(cta->resourceId.empty());  // virtual nodes never carry one
  EXPECT_EQ(cta->className, "android.widget.Button");
  EXPECT_TRUE(cta->clickable);
  EXPECT_EQ(cta->text, "INSTALL");
  // Page coords (40, 120) carried through the host's screen position.
  EXPECT_EQ(cta->boundsOnScreen,
            (Rect{host.boundsOnScreen.x + 40, host.boundsOnScreen.y + 120,
                  160, 48}));
  // Flattened depth continues below the host: page root is host + 1, the
  // overlay host + 2, the CTA host + 3.
  const UiNode* page = findVirtualNode(dump, "page");
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->depth, host.depth + 1);
  EXPECT_EQ(cta->depth, host.depth + 3);
  EXPECT_EQ(page->className, "android.webkit.WebView");

  // Every virtual node sits after its host in pre-order (paint order).
  for (std::size_t i = 0; i < dump.size(); ++i) {
    if (dump[i].isVirtual) {
      EXPECT_GT(static_cast<int>(i), hostIdx);
    }
  }
}

TEST(WebViewTest, EffAlphaChainsHostAlphaIntoPageOpacity) {
  android::AndroidSystem system;
  const Rect frame = system.windowManager.appFrame(false);
  VirtualNode page = vnode(VirtualRole::kWebArea, "page", {0, 0, 200, 200});
  VirtualNode faded =
      vnode(VirtualRole::kGenericContainer, "faded", {0, 0, 100, 100});
  faded.opacity = 0.5;
  VirtualNode inner =
      vnode(VirtualRole::kGenericContainer, "inner", {10, 10, 50, 50});
  inner.opacity = 0.5;
  faded.children.push_back(std::move(inner));
  page.children.push_back(std::move(faded));

  WebView* web = nullptr;
  auto root = webScreen({frame.width, frame.height}, {0, 0, 200, 200},
                        std::move(page), &web);
  web->setAlpha(0.5);
  system.windowManager.showAppWindow("com.web", std::move(root), false);
  const UiDump dump = system.windowManager.dumpTopWindow();

  const UiNode* inner2 = findVirtualNode(dump, "inner");
  ASSERT_NE(inner2, nullptr);
  // Host alpha 0.5 x faded 0.5 x inner 0.5.
  EXPECT_NEAR(inner2->effAlpha, 0.125, 1e-9);
}

TEST(WebViewTest, FindVirtualAndBoundsInRoot) {
  WebView web;
  web.setFrame({30, 50, 300, 400});
  VirtualNode page = interstitialPage({300, 400});
  // Duplicate id: pages reuse DOM ids freely; first pre-order match wins.
  page.children.push_back(
      vnode(VirtualRole::kGenericContainer, "gwd-cta", {0, 0, 10, 10}));
  web.setPage(std::move(page));

  ASSERT_NE(web.findVirtual("gwd-cta"), nullptr);
  EXPECT_EQ(web.findVirtual("gwd-cta")->bounds, (Rect{40, 120, 160, 48}));
  EXPECT_EQ(web.findVirtual(""), nullptr);  // empty id is non-identifying
  EXPECT_EQ(web.findVirtual("missing"), nullptr);
  EXPECT_EQ(web.virtualBoundsInRoot("gwd-cta"), (Rect{70, 170, 160, 48}));
  EXPECT_TRUE(web.virtualBoundsInRoot("missing").empty());
  EXPECT_EQ(web.virtualNodeCount(), 5);

  web.clearPage();
  EXPECT_FALSE(web.hasPage());
  EXPECT_EQ(web.virtualNodeCount(), 0);
}

TEST(WebViewTest, HitTestRoutesClickableVirtualNodesToHost) {
  auto root = std::make_unique<android::View>();
  root->setFrame({0, 0, 360, 720});
  auto web = std::make_unique<WebView>();
  web->setFrame({20, 40, 280, 400});
  web->setPage(interstitialPage({280, 400}));
  auto* webPtr = root->addChild(std::move(web));

  // Inside the clickable CTA (page 40,120 -> root 60,160): the WebView
  // consumes the click; virtual nodes have no native View identity.
  EXPECT_EQ(root->hitTest({70, 170}), webPtr);
  // Inside the page but only over the non-clickable overlay: no virtual
  // target and the WebView itself is not clickable.
  EXPECT_EQ(root->hitTest({30, 420}), nullptr);
  // Outside the WebView entirely.
  EXPECT_EQ(root->hitTest({350, 700}), nullptr);
}

TEST(WebViewTest, PaintsPageThroughSharedCanvasPrimitives) {
  android::AndroidSystem system;
  const Rect frame = system.windowManager.appFrame(false);
  VirtualNode page = vnode(VirtualRole::kWebArea, "page", {0, 0, 200, 200});
  VirtualNode plate =
      vnode(VirtualRole::kGenericContainer, "plate", {10, 10, 80, 80});
  plate.background = colors::kRed;
  page.children.push_back(std::move(plate));
  system.windowManager.showAppWindow(
      "com.web",
      webScreen({frame.width, frame.height}, {0, 0, 200, 200},
                std::move(page)),
      false);
  const gfx::Bitmap shot = system.windowManager.composite();
  // Plate at page (10,10) -> window (10,10) -> screen (+frame origin).
  EXPECT_EQ(shot.at(frame.x + 40, frame.y + 40), colors::kRed);
  EXPECT_EQ(shot.at(frame.x + 150, frame.y + 150), colors::kWhite);
}

// ------------------------------------- fingerprint property (satellite 1)

UiDump dumpOfWebScreen(VirtualNode page, Size pageSize = {300, 400}) {
  android::AndroidSystem system;
  const Rect frame = system.windowManager.appFrame(false);
  system.windowManager.showAppWindow(
      "com.web",
      webScreen({frame.width, frame.height},
                {10, 10, pageSize.width, pageSize.height}, std::move(page)),
      false);
  return system.windowManager.dumpTopWindow();
}

TEST(VirtualFingerprintPropertyTest, AllEmptyIdTreesDoNotCollapse) {
  // Two structurally distinct pages where EVERY id — resource and virtual
  // — is empty. A fingerprint leaning on resource ids would hash both to
  // the same value; the class/bounds/text mix must keep them apart.
  VirtualNode a = vnode(VirtualRole::kWebArea, "", {0, 0, 300, 400});
  a.children.push_back(
      vnode(VirtualRole::kGenericContainer, "", {0, 0, 300, 400}));
  a.children.back().children.push_back(
      vnode(VirtualRole::kButton, "", {40, 120, 160, 48}, true, "INSTALL"));

  VirtualNode b = vnode(VirtualRole::kWebArea, "", {0, 0, 300, 400});
  b.children.push_back(
      vnode(VirtualRole::kGenericContainer, "", {0, 0, 300, 400}));
  b.children.back().children.push_back(
      vnode(VirtualRole::kImage, "", {20, 60, 260, 200}, true));

  const UiDump dumpA = dumpOfWebScreen(a);
  const UiDump dumpB = dumpOfWebScreen(b);
  for (const UiNode& node : dumpA) EXPECT_TRUE(node.resourceId.empty());
  const std::uint64_t fpA = android::WindowManager::fingerprint(dumpA);
  const std::uint64_t fpB = android::WindowManager::fingerprint(dumpB);
  EXPECT_NE(fpA, fpB);
  EXPECT_NE(fpA, 0u);

  // Determinism: re-dumping the same screen reproduces the fingerprint.
  EXPECT_EQ(fpA, android::WindowManager::fingerprint(dumpOfWebScreen(a)));
}

TEST(VirtualFingerprintPropertyTest, VirtualIdAloneDistinguishesTrees) {
  // Identical geometry and classes, different page-global ids: the
  // fingerprint mixes virtualId, so the trees stay distinct even when
  // everything FraudDroid can see is identical (all resource ids empty).
  VirtualNode a = vnode(VirtualRole::kWebArea, "page", {0, 0, 300, 400});
  a.children.push_back(
      vnode(VirtualRole::kGenericContainer, "gwd-div-1", {0, 0, 100, 100}));
  VirtualNode b = vnode(VirtualRole::kWebArea, "page", {0, 0, 300, 400});
  b.children.push_back(
      vnode(VirtualRole::kGenericContainer, "gwd-div-2", {0, 0, 100, 100}));

  EXPECT_NE(android::WindowManager::fingerprint(dumpOfWebScreen(a)),
            android::WindowManager::fingerprint(dumpOfWebScreen(b)));
}

TEST(VirtualFingerprintPropertyTest, VerdictCacheNeverCrossServesWebScreens) {
  VirtualNode a = interstitialPage({300, 400});
  VirtualNode b = interstitialPage({300, 400});
  b.children[0].children[0].bounds = {42, 130, 150, 44};  // nudge the CTA
  const std::uint64_t fpA =
      android::WindowManager::fingerprint(dumpOfWebScreen(a));
  const std::uint64_t fpB =
      android::WindowManager::fingerprint(dumpOfWebScreen(b));
  ASSERT_NE(fpA, fpB);

  core::VerdictCache cache(8);
  cache.put(fpA, {/*isAui=*/true, {}});
  EXPECT_EQ(cache.find(fpB), nullptr);  // no cross-hit on the sibling page
  ASSERT_NE(cache.find(fpA), nullptr);
  EXPECT_TRUE(cache.find(fpA)->isAui);

  core::SharedVerdictTier tier(8);
  tier.publish(fpA, {/*isAui=*/true, {}});
  EXPECT_FALSE(tier.find(fpB).has_value());
  ASSERT_TRUE(tier.find(fpA).has_value());
  EXPECT_TRUE(tier.find(fpA)->isAui);
}

/// Flags every screenshot as an AUI with one UPO, so the service decorates
/// every screen it analyzes.
class AlwaysUpoDetector : public cv::Detector {
 public:
  std::vector<cv::Detection> detect(const gfx::Bitmap&) const override {
    return {{Rect{300, 40, 24, 24}, dataset::BoxLabel::kUpo, 0.9f}};
  }
  double costMacsPerImage() const override { return 1.0; }
};

/// Replaces a WebView's page with a copy that has one more button, or
/// clears it.
void mutatePage(WebView& web, Rng& rng) {
  if (web.hasPage() && rng.chance(0.75)) {
    VirtualNode page = *web.page();
    page.children.push_back(
        vnode(VirtualRole::kButton, "late", {4, 4, 30, 12}, true, "Go"));
    web.setPage(std::move(page));
  } else {
    web.clearPage();
  }
}

/// Calls one random public setter on a random view of `root`'s tree:
/// fields the walk reads, a subclass's content, a WebView's page, the
/// tree's shape, or a field the walk ignores. A tree with a WebView has
/// its page changed one call in three. Returns true when the call
/// replaced or cleared a page.
bool mutateRandomView(android::View& root, Rng& rng) {
  std::vector<android::View*> views;
  WebView* web = nullptr;
  std::vector<android::View*> pending{&root};
  while (!pending.empty()) {
    android::View* view = pending.back();
    pending.pop_back();
    views.push_back(view);
    if (auto* w = dynamic_cast<WebView*>(view)) web = w;
    for (const auto& child : view->children()) pending.push_back(child.get());
  }
  if (web != nullptr && rng.chance(1.0 / 3.0)) {
    mutatePage(*web, rng);
    return true;
  }
  android::View& v =
      *views[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<int>(views.size()) - 1))];
  const auto channel = [&rng] {
    return static_cast<std::uint8_t>(rng.uniformInt(0, 255));
  };
  switch (rng.uniformInt(0, 7)) {
    case 0:
      v.setBackground(Color::rgba(channel(), channel(), channel(), channel()));
      break;
    case 1:
      v.setAlpha(rng.uniform(0.0, 1.0));
      break;
    case 2:
      v.setVisible(!v.visible());
      break;
    case 3: {
      Rect f = v.frame();
      f.x += rng.uniformInt(-3, 3);
      f.height += rng.uniformInt(0, 3);
      v.setFrame(f);
      break;
    }
    case 4:
      v.setClickable(!v.clickable());
      break;
    case 5:
      v.setResourceId(rng.chance(0.5) ? "" : "rid_" + std::to_string(channel()));
      break;
    case 6:
      if (auto* text = dynamic_cast<android::TextView*>(&v)) {
        if (rng.chance(0.5)) {
          text->setText(text->text() + "x");
        } else {
          text->setTextColor(Color::rgb(channel(), channel(), channel()));
        }
      } else if (auto* icon = dynamic_cast<android::IconView*>(&v)) {
        icon->setGlyphColor(Color::rgb(channel(), channel(), channel()));
      } else if (auto* hosted = dynamic_cast<WebView*>(&v)) {
        mutatePage(*hosted, rng);
        return true;
      } else {
        auto child = std::make_unique<android::TextView>();
        child->setFrame({2, 2, 40, 12});
        child->setText("new");
        v.addChild(std::move(child));
      }
      break;
    default:
      // Fields the walk does not read still count as mutations.
      v.setCornerRadius(rng.uniformInt(0, 9));
      break;
  }
  return false;
}

TEST(VirtualFingerprintPropertyTest, LiveWalkEqualsDumpHashOnGeneratedScreens) {
  // topWindowFingerprint() hashes the live view tree without building a
  // dump; it must agree with fingerprint(dumpTopWindow()) on every screen
  // shape the generator makes: benign screens, hard negatives, native AUIs
  // and AUIs that a WebView hosts three times in four. Every sixth screen
  // is also analyzed and decorated by the service, and must fingerprint
  // the same afterwards. Then each screen takes three rounds of random
  // setter calls, each between two probes, and the memoized probe must
  // still agree with a fresh dump after every round.
  AlwaysUpoDetector detector;
  android::AndroidSystem system;
  core::DarpaService service(detector);
  system.accessibility.connect(service);
  const Rect frame = system.windowManager.appFrame(false);

  apps::ScreenGenerator::Params nativeParams;
  nativeParams.frame = {frame.width, frame.height};
  apps::ScreenGenerator::Params hybridParams = nativeParams;
  hybridParams.webViewAuiProb = 0.75;
  apps::ScreenGenerator benignGen(nativeParams, 4101);
  apps::ScreenGenerator hardGen(nativeParams, 4102);
  apps::ScreenGenerator nativeAuiGen(nativeParams, 4103);
  apps::ScreenGenerator hybridAuiGen(hybridParams, 4104);

  constexpr int kPerKind = 300;
  int screens = 0;
  int decorated = 0;
  int virtualScreens = 0;
  Rng mutations(4105);
  int rounds = 0;
  int moved = 0;
  int pageMutations = 0;
  for (int i = 0; i < kPerKind; ++i) {
    apps::GeneratedScreen batch[] = {
        benignGen.makeBenign(), hardGen.makeHardNegative(),
        nativeAuiGen.makeAui(nativeAuiGen.randomSpec()),
        hybridAuiGen.makeAui(hybridAuiGen.randomSpec())};
    for (apps::GeneratedScreen& screen : batch) {
      if (system.windowManager.appWindowCount() > 0) {
        system.windowManager.popAppWindow();
      }
      system.windowManager.showAppWindow("com.gen", std::move(screen.root),
                                         false);
      const UiDump dump = system.windowManager.dumpTopWindow();
      const std::uint64_t fromDump = android::WindowManager::fingerprint(dump);
      ASSERT_EQ(system.windowManager.topWindowFingerprint(), fromDump)
          << "screen " << screens;
      for (const UiNode& node : dump) {
        if (node.isVirtual) {
          ++virtualScreens;
          break;
        }
      }
      if (screens % 6 == 0) {
        system.looper.runUntilIdle();
        ASSERT_FALSE(service.decorationRects().empty());
        ++decorated;
        ASSERT_EQ(system.windowManager.topWindowFingerprint(), fromDump)
            << "decorated screen " << screens;
        ASSERT_EQ(android::WindowManager::fingerprint(
                      system.windowManager.dumpTopWindow()),
                  fromDump);
      }
      android::View& root = system.windowManager.topAppWindow()->content();
      for (int round = 0; round < 3; ++round) {
        const std::uint64_t before = system.windowManager.topWindowFingerprint();
        const int calls = mutations.uniformInt(1, 2);
        for (int c = 0; c < calls; ++c) {
          if (mutateRandomView(root, mutations)) ++pageMutations;
        }
        const std::uint64_t after = system.windowManager.topWindowFingerprint();
        ASSERT_EQ(after, android::WindowManager::fingerprint(
                             system.windowManager.dumpTopWindow()))
            << "screen " << screens << ", round " << round;
        ASSERT_EQ(system.windowManager.topWindowFingerprint(), after);
        ++rounds;
        if (after != before) ++moved;
      }
      ++screens;
    }
  }
  EXPECT_EQ(screens, 4 * kPerKind);
  EXPECT_EQ(decorated, 200);
  EXPECT_GT(virtualScreens, kPerKind / 4);  // the hybrid kind took hold
  EXPECT_EQ(rounds, 3 * 4 * kPerKind);
  EXPECT_GT(moved, rounds / 2);  // most rounds change what the walk reads
  EXPECT_GT(pageMutations, virtualScreens / 2);  // and many change a page
}

// ------------------------------------ hostile page shapes (satellite 3)

VirtualNode deepChain(int levels) {
  VirtualNode node = vnode(VirtualRole::kStaticText, "leaf", {5, 5, 20, 10},
                           false, "bottom");
  for (int i = 0; i < levels; ++i) {
    VirtualNode parent =
        vnode(VirtualRole::kGenericContainer, "", {0, 0, 280, 380});
    parent.children.push_back(std::move(node));
    node = std::move(parent);
  }
  VirtualNode page = vnode(VirtualRole::kWebArea, "page", {0, 0, 280, 380});
  page.children.push_back(std::move(node));
  return page;
}

TEST(VirtualLintTraversalTest, DeepFlattenedChainDoesNotOverflow) {
  // Real pages nest hundreds of levels; the dump walk and every consumer
  // above it must survive a 300-deep chain (well past the 64 levels a
  // recursive visitor's stack frame budget gets nervous at).
  android::AndroidSystem system;
  const Rect frame = system.windowManager.appFrame(false);
  system.windowManager.showAppWindow(
      "com.web",
      webScreen({frame.width, frame.height}, {10, 10, 300, 400},
                deepChain(300)),
      false);
  const UiDump dump = system.windowManager.dumpTopWindow();
  const UiNode* leaf = findVirtualNode(dump, "leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_GE(leaf->depth, 300);

  const analysis::LintEngine engine = analysis::LintEngine::withDefaultRules();
  const analysis::LintReport report = engine.run(dump, {360, 720});
  EXPECT_GE(report.nodesVisited, 300);
  const std::uint64_t fromDump = android::WindowManager::fingerprint(dump);
  EXPECT_NE(fromDump, 0u);
  // The live walk goes through the same chain without a dump.
  EXPECT_EQ(system.windowManager.topWindowFingerprint(), fromDump);
}

TEST(VirtualLintTraversalTest, WideFlattenedForestTraversesInDocumentOrder) {
  VirtualNode page = vnode(VirtualRole::kWebArea, "page", {0, 0, 300, 400});
  for (int i = 0; i < 3000; ++i) {
    page.children.push_back(vnode(VirtualRole::kStaticText,
                                  "n" + std::to_string(i),
                                  {i % 280, (i / 280) % 380, 4, 4}));
  }
  const UiDump dump = dumpOfWebScreen(page);

  // Document (pre-order) order is preserved across the whole fan-out.
  int last = -1;
  int seen = 0;
  for (const UiNode& node : dump) {
    if (!node.isVirtual || node.virtualId.size() < 2 ||
        node.virtualId[0] != 'n' || std::isdigit(node.virtualId[1]) == 0) {
      continue;
    }
    const int idx = std::stoi(node.virtualId.substr(1));
    EXPECT_EQ(idx, last + 1);
    last = idx;
    ++seen;
  }
  EXPECT_EQ(seen, 3000);

  const analysis::LintEngine engine = analysis::LintEngine::withDefaultRules();
  EXPECT_GE(engine.run(dump, {360, 720}).nodesVisited, 3000);
}

// ------------------------------------------- generator + dataset hybrid

TEST(WebAuiGeneratorTest, MakeWebAuiEmitsVirtualInterstitialWithTruth) {
  apps::ScreenGenerator::Params params;
  params.frame = {360, 648};
  apps::ScreenGenerator gen(params, /*seed=*/771);
  apps::AuiSpec spec;
  spec.type = apps::AuiType::kAdvertisement;
  spec.host = apps::AuiHost::kWebView;
  spec.hasAgoBox = true;
  apps::GeneratedScreen screen = gen.makeAui(spec);

  ASSERT_TRUE(screen.truth.isAui);
  EXPECT_EQ(screen.truth.spec->host, apps::AuiHost::kWebView);
  ASSERT_EQ(screen.truth.upoBoxes.size(), 1u);
  ASSERT_GE(screen.truth.agoBoxes.size(), 1u);

  // The screen hosts exactly one WebView with a loaded page, and the truth
  // boxes are inside the window.
  WebView* web = nullptr;
  for (const auto& child : screen.root->children()) {
    if (auto* w = dynamic_cast<WebView*>(child.get())) web = w;
  }
  ASSERT_NE(web, nullptr);
  EXPECT_TRUE(web->hasPage());
  EXPECT_GT(web->virtualNodeCount(), 3);
  const Rect window{0, 0, params.frame.width, params.frame.height};
  for (const Rect& box : screen.truth.upoBoxes) {
    EXPECT_EQ(box, box.intersect(window));
  }
}

TEST(WebAuiGeneratorTest, ZeroProbabilityNeverEmitsWebHosts) {
  apps::ScreenGenerator::Params params;  // webViewAuiProb defaults to 0
  apps::ScreenGenerator gen(params, 99);
  for (int i = 0; i < 200; ++i) {
    EXPECT_NE(gen.randomSpec().host, apps::AuiHost::kWebView);
  }
  apps::ScreenGenerator::Params webParams;
  webParams.webViewAuiProb = 1.0;
  apps::ScreenGenerator webGen(webParams, 99);
  int webCount = 0;
  for (int i = 0; i < 200; ++i) {
    if (webGen.randomSpec().host == apps::AuiHost::kWebView) ++webCount;
  }
  EXPECT_GT(webCount, 0);  // every third-party ad flips to a WebView
}

TEST(WebAuiGeneratorTest, DatasetWebViewQuotaIsExactAndGuarded) {
  dataset::DatasetConfig config;
  config.totalScreenshots = 100;

  const auto countWeb = [](const dataset::AuiDataset& data) {
    int web = 0;
    for (const dataset::SampleSpec& spec : data.specs()) {
      if (spec.spec.host == apps::AuiHost::kWebView) ++web;
    }
    return web;
  };

  const dataset::AuiDataset plain = dataset::AuiDataset::build(config);
  EXPECT_EQ(countWeb(plain), 0);

  config.webViewFrac = 0.5;
  const dataset::AuiDataset hybrid = dataset::AuiDataset::build(config);
  const int web = countWeb(hybrid);
  EXPECT_GT(web, 0);
  for (const dataset::SampleSpec& spec : hybrid.specs()) {
    if (spec.spec.host == apps::AuiHost::kWebView) {
      EXPECT_EQ(spec.spec.type, apps::AuiType::kAdvertisement);
    }
  }

  // A WebView sample renders and keeps its annotations.
  for (std::size_t i = 0; i < hybrid.size(); ++i) {
    if (hybrid.specs()[i].spec.host != apps::AuiHost::kWebView) continue;
    const dataset::Sample sample = hybrid.materialize(i);
    EXPECT_FALSE(sample.annotations.empty());
    EXPECT_EQ(sample.image.width(), config.screenSize.width);
    break;
  }
}

// ----------------------------------------- FraudDroid id coverage (sat 2)

UiNode uiNode(std::string className, std::string resourceId, Rect bounds,
              bool clickable, int depth) {
  UiNode node;
  node.className = std::move(className);
  node.resourceId = std::move(resourceId);
  node.boundsOnScreen = bounds;
  node.clickable = clickable;
  node.depth = depth;
  return node;
}

TEST(FraudDroidCoverageTest, EmptyIdsNeverMatchAndCoverageIsCounted) {
  // The degenerate pre-fix behavior: an empty resource id substring-matched
  // every token. This screen is AUI-shaped but carries no ids at all.
  UiDump dump;
  dump.push_back(uiNode("FrameLayout", "", {0, 0, 360, 720}, false, 0));
  dump.push_back(uiNode("View", "", {330, 10, 20, 20}, true, 1));  // tiny
  dump.push_back(uiNode("Button", "", {30, 300, 300, 120}, true, 1));
  const baselines::FraudDroidDetector detector;
  const baselines::FraudDroidResult result = detector.analyze(dump, {360, 720});
  EXPECT_FALSE(result.isAui);
  EXPECT_TRUE(result.upoBoxes.empty());
  EXPECT_EQ(result.nodesSeen, 3);
  EXPECT_EQ(result.nodesWithId, 0);
  EXPECT_DOUBLE_EQ(result.idCoverage(), 0.0);
}

TEST(FraudDroidCoverageTest, DuplicateIdAndBoundsCollapseToOneBox) {
  UiDump dump;
  dump.push_back(uiNode("FrameLayout", "root", {0, 0, 360, 720}, false, 0));
  // A duplicated DOM-style id with identical bounds (web pages reuse ids):
  // must count once, not inflate the flagged set.
  dump.push_back(uiNode("View", "btn_close", {330, 10, 20, 20}, true, 1));
  dump.push_back(uiNode("View", "btn_close", {330, 10, 20, 20}, true, 1));
  dump.push_back(uiNode("Button", "cta_open", {30, 300, 300, 120}, true, 1));
  const baselines::FraudDroidDetector detector;
  const baselines::FraudDroidResult result = detector.analyze(dump, {360, 720});
  EXPECT_TRUE(result.isAui);
  EXPECT_EQ(result.upoBoxes.size(), 1u);
  EXPECT_EQ(result.nodesSeen, 4);
  EXPECT_EQ(result.nodesWithId, 4);
  EXPECT_DOUBLE_EQ(result.idCoverage(), 1.0);
}

// ------------------------------------------ lint degradation on virtual

TEST(IdTokenRuleVirtualTest, MatchesVirtualIdsAndLabelsAtReducedScale) {
  UiDump dump;
  dump.push_back(uiNode("FrameLayout", "root", {0, 0, 360, 720}, false, 0));
  UiNode close = uiNode("android.view.View", "", {330, 10, 20, 20}, true, 1);
  close.isVirtual = true;
  close.virtualId = "ad-close-x";  // dismiss vocabulary in the DOM id
  dump.push_back(close);
  UiNode cta = uiNode("android.widget.Button", "", {30, 300, 300, 120}, true, 1);
  cta.isVirtual = true;
  cta.text = "OPEN NOW";  // CTA vocabulary only in the visible label
  dump.push_back(cta);

  const analysis::LintContext ctx(dump, {360, 720});
  analysis::LintReport report;
  analysis::runIdHint(ctx, report.findings);
  ASSERT_TRUE(report.has("aui-id-hint"));
  // Reduced confidence: virtual evidence is scaled below the native 0.4.
  EXPECT_LT(report.best("aui-id-hint")->score, 0.4);
  ASSERT_GE(report.findings.size(), 2u);
  // The label-only CTA hit still files as an AGO box.
  EXPECT_FALSE(report.findings[0].ago);
  EXPECT_TRUE(report.findings[1].ago);
}

// ----------------------------- decoration through the host (tentpole)

class StubDetector : public cv::Detector {
 public:
  std::vector<cv::Detection> detect(const gfx::Bitmap&) const override {
    return {};
  }
  double costMacsPerImage() const override { return 1.0; }
};

TEST(VirtualDecorationTest, DecorateVirtualNodeTargetsBoundsThroughHost) {
  android::AndroidSystem system;
  StubDetector detector;
  core::DarpaService service(detector);
  system.accessibility.connect(service);

  const Rect frame = system.windowManager.appFrame(false);
  system.windowManager.showAppWindow(
      "com.web",
      webScreen({frame.width, frame.height}, {20, 40, 280, 400},
                interstitialPage({280, 400})),
      false);
  system.looper.runUntilIdle();

  const UiDump dump = system.windowManager.dumpTopWindow();
  const std::uint64_t before = android::WindowManager::fingerprint(dump);
  const UiNode* close = findVirtualNode(dump, "gwd-close");
  ASSERT_NE(close, nullptr);

  EXPECT_FALSE(service.decorateVirtualNode("missing-id"));
  EXPECT_FALSE(service.decorateVirtualNode(""));
  ASSERT_TRUE(service.decorateVirtualNode("gwd-close"));

  // The ring lands around the virtual node's on-screen bounds, carried
  // through the hosting native view and the §IV-D window offset.
  const std::vector<Rect> rects = service.decorationRects();
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0],
            close->boundsOnScreen.inflated(
                core::DarpaService::kDecorationThickness + 1));

  // Decoration immunity extends to hybrid dumps: the decorated screen
  // fingerprints identically, so caches keyed on it stay warm.
  EXPECT_EQ(android::WindowManager::fingerprint(
                system.windowManager.dumpTopWindow()),
            before);
}

}  // namespace
}  // namespace darpa
