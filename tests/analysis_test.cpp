// Unit tests for the static AUI lint pass: context reconstruction from the
// pre-order dump, one positive and one negative fixture per rule, the merged
// verdict on AUI / symmetric-dialog / benign-banner screens, the style
// metadata the WindowManager dump feeds the rules, and the DarpaService
// pre-filter short-circuiting CV on confident verdicts.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/lint.h"
#include "android/system.h"
#include "apps/screen_generator.h"
#include "baselines/frauddroid.h"
#include "core/darpa_service.h"

namespace darpa::analysis {
namespace {

constexpr Size kScreen{360, 720};
constexpr Rect kWindow{0, 24, 360, 648};

android::UiNode makeNode(std::string cls, Rect bounds, int depth) {
  android::UiNode n;
  n.className = std::move(cls);
  n.boundsOnScreen = bounds;
  n.depth = depth;
  return n;
}

/// The generator's canonical asymmetric popup with obfuscated ids: scrim,
/// opaque panel, loud dominant CTA, 18x18 low-contrast corner close.
android::UiDump auiDump() {
  android::UiDump dump;
  auto root = makeNode("View", kWindow, 0);
  root.background = colors::kWhite;
  dump.push_back(root);

  auto scrim = makeNode("View", kWindow, 1);
  scrim.background = colors::kBlack;
  scrim.effAlpha = 0.6;
  dump.push_back(scrim);

  auto panel = makeNode("View", {40, 200, 280, 300}, 1);
  panel.background = colors::kWhite;
  dump.push_back(panel);

  auto ago = makeNode("Button", {64, 380, 232, 56}, 2);
  ago.clickable = true;
  ago.background = Color::rgb(230, 70, 40);
  ago.contentColor = colors::kWhite;
  ago.hasContentColor = true;
  dump.push_back(ago);

  auto upo = makeNode("IconView", {44, 204, 18, 18}, 2);
  upo.clickable = true;
  upo.contentColor = Color::rgb(190, 190, 190);
  upo.hasContentColor = true;
  dump.push_back(upo);
  return dump;
}

/// Footnote-4 hard negative: a modal offering two comparably prominent
/// options plus an ordinary close button. Must NOT be flagged.
android::UiDump symmetricDialogDump() {
  android::UiDump dump;
  auto root = makeNode("View", kWindow, 0);
  root.background = colors::kWhite;
  dump.push_back(root);

  auto scrim = makeNode("View", kWindow, 1);
  scrim.background = colors::kBlack;
  scrim.effAlpha = 0.6;
  dump.push_back(scrim);

  auto panel = makeNode("View", {40, 220, 280, 260}, 1);
  panel.background = colors::kWhite;
  dump.push_back(panel);

  auto yes = makeNode("Button", {60, 400, 120, 48}, 2);
  yes.clickable = true;
  yes.background = Color::rgb(230, 70, 40);
  yes.contentColor = colors::kWhite;
  yes.hasContentColor = true;
  dump.push_back(yes);

  auto no = makeNode("Button", {190, 400, 120, 48}, 2);
  no.clickable = true;
  no.background = Color::rgb(235, 235, 235);
  no.contentColor = colors::kBlack;
  no.hasContentColor = true;
  dump.push_back(no);

  auto close = makeNode("IconView", {44, 224, 20, 20}, 2);
  close.clickable = true;
  close.contentColor = colors::kBlack;  // reads as loud as the dialog text
  close.hasContentColor = true;
  dump.push_back(close);
  return dump;
}

/// Benign feed with an honest banner ad whose resource ids are designed to
/// trip string matching ("iv_ad_banner", "btn_close").
android::UiDump benignBannerDump() {
  android::UiDump dump;
  auto root = makeNode("View", kWindow, 0);
  root.background = colors::kWhite;
  dump.push_back(root);

  auto content = makeNode("TextView", {16, 60, 328, 40}, 1);
  content.text = "feed item";
  content.contentColor = colors::kBlack;
  content.hasContentColor = true;
  dump.push_back(content);

  auto banner = makeNode("View", {0, 598, 360, 74}, 1);
  banner.background = colors::kWhite;
  dump.push_back(banner);

  auto creative = makeNode("ImageView", {0, 598, 320, 74}, 2);
  creative.clickable = true;
  creative.resourceId = "iv_ad_banner";
  dump.push_back(creative);

  auto close = makeNode("Button", {324, 602, 24, 24}, 2);
  close.clickable = true;
  close.resourceId = "btn_close";
  close.background = Color::rgb(235, 235, 235);
  close.contentColor = colors::kBlack;
  close.hasContentColor = true;
  dump.push_back(close);
  return dump;
}

// ---------------------------------------------------------------- context

TEST(LintContextTest, ReconstructsHierarchyFromPreOrderDepths) {
  const android::UiDump dump = auiDump();
  const LintContext ctx(dump, kScreen);
  EXPECT_EQ(ctx.parent(0), -1);
  EXPECT_EQ(ctx.parent(1), 0);
  EXPECT_EQ(ctx.parent(2), 0);
  EXPECT_EQ(ctx.parent(3), 2);
  EXPECT_EQ(ctx.parent(4), 2);
  EXPECT_EQ(ctx.subtreeEnd(2), 5);  // panel subtree spans the two options
  EXPECT_TRUE(ctx.isDescendant(4, 2));
  EXPECT_FALSE(ctx.isDescendant(2, 4));
  EXPECT_EQ(ctx.path(0), "View");
  EXPECT_EQ(ctx.path(2), "View/View[1]");
  EXPECT_EQ(ctx.path(4), "View/View[1]/IconView[1]");
}

TEST(LintContextTest, DetectsModalScaffolding) {
  const android::UiDump dump = auiDump();
  const LintContext ctx(dump, kScreen);
  EXPECT_TRUE(ctx.modal());
  EXPECT_EQ(ctx.scrimIndex(), 1);
  EXPECT_EQ(ctx.panelIndex(), 2);
  EXPECT_EQ(ctx.panelRect(), (Rect{40, 200, 280, 300}));
  EXPECT_EQ(ctx.dominantClickable(), 3);
  const std::vector<int>& dismiss = ctx.dismissCandidates();
  ASSERT_EQ(dismiss.size(), 1u);
  EXPECT_EQ(dismiss[0], 4);
  EXPECT_FALSE(ctx.symmetricPair());
}

TEST(LintContextTest, BenignScreenHasNoModalAndSymmetricDialogIsDetected) {
  const android::UiDump bannerDump = benignBannerDump();
  const LintContext benign(bannerDump, kScreen);
  EXPECT_FALSE(benign.modal());
  EXPECT_EQ(benign.panelRect(), kWindow);  // falls back to the window

  const android::UiDump dialogDump = symmetricDialogDump();
  const LintContext dialog(dialogDump, kScreen);
  EXPECT_TRUE(dialog.modal());
  EXPECT_TRUE(dialog.symmetricPair());
}

TEST(LintContextTest, EffectiveBackdropCompositesAncestorPaint) {
  const android::UiDump dump = auiDump();
  const LintContext ctx(dump, kScreen);
  // The UPO sits on the opaque white panel: backdrop is pure white even
  // though a dark scrim was painted between root and panel.
  EXPECT_EQ(ctx.effectiveBackdrop(4), colors::kWhite);
  // The scrim itself sits on the white root, darkened by nothing above.
  EXPECT_EQ(ctx.effectiveBackdrop(1), colors::kWhite);
}

// ------------------------------------------------------------------ rules

TEST(SizeAsymmetryRuleTest, FlagsTinyDismissNextToDominantOption) {
  const android::UiDump dump = auiDump();
  const LintContext ctx(dump, kScreen);
  std::vector<LintFinding> findings;
  runSizeAsymmetry(ctx, findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].ruleId, "aui-size-asymmetry");
  EXPECT_EQ(findings[0].nodeIndex, 4);
  EXPECT_EQ(findings[0].severity, Severity::kError);  // ratio ~40x
  EXPECT_GE(findings[0].score, 0.9);
  EXPECT_EQ(findings[0].box, (Rect{44, 204, 18, 18}));
}

TEST(SizeAsymmetryRuleTest, SymmetricDialogDowngradesToInfo) {
  const android::UiDump dump = symmetricDialogDump();
  const LintContext ctx(dump, kScreen);
  std::vector<LintFinding> findings;
  runSizeAsymmetry(ctx, findings);
  ASSERT_EQ(findings.size(), 1u);  // the close button still trips the ratio
  EXPECT_EQ(findings[0].severity, Severity::kInfo);
  EXPECT_LE(findings[0].score, 0.25);
}

TEST(CornerPlacementRuleTest, FlagsCornerPinnedDismissOnModal) {
  const android::UiDump dump = auiDump();
  const LintContext ctx(dump, kScreen);
  std::vector<LintFinding> findings;
  runCornerPlacement(ctx, findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].ruleId, "aui-corner-upo");
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_DOUBLE_EQ(findings[0].score, 1.0);
  EXPECT_NE(findings[0].message.find("corner"), std::string::npos);
}

TEST(CornerPlacementRuleTest, CentralDismissDoesNotFire) {
  android::UiDump dump = auiDump();
  // Move the close option to the middle of the panel.
  dump[4].boundsOnScreen = {171, 340, 18, 18};
  const LintContext ctx(dump, kScreen);
  std::vector<LintFinding> findings;
  runCornerPlacement(ctx, findings);
  EXPECT_TRUE(findings.empty());
}

TEST(ContrastAsymmetryRuleTest, FlagsMutedDismissNextToLoudCta) {
  const android::UiDump dump = auiDump();
  const LintContext ctx(dump, kScreen);
  std::vector<LintFinding> findings;
  runContrastAsymmetry(ctx, findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].ruleId, "aui-contrast-asymmetry");
  EXPECT_EQ(findings[0].nodeIndex, 4);
  EXPECT_GT(findings[0].score, 0.0);
}

TEST(ContrastAsymmetryRuleTest, GhostDismissIsAnErrorOnItsOwn) {
  android::UiDump dump = auiDump();
  dump[4].effAlpha = 0.2;  // the generator's ghost-UPO range
  const LintContext ctx(dump, kScreen);
  std::vector<LintFinding> findings;
  runContrastAsymmetry(ctx, findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_DOUBLE_EQ(findings[0].score, 1.0);
  EXPECT_NE(findings[0].message.find("ghost"), std::string::npos);
}

TEST(ContrastAsymmetryRuleTest, HighContrastDismissDoesNotFire) {
  const android::UiDump dump = symmetricDialogDump();
  const LintContext ctx(dump, kScreen);
  std::vector<LintFinding> findings;
  runContrastAsymmetry(ctx, findings);
  EXPECT_TRUE(findings.empty());  // dark-on-white close reads louder than CTA
}

TEST(TouchTargetRuleTest, FlagsSubMinimumTargetsAndSpares48dp) {
  const android::UiDump dump = auiDump();
  const LintContext aui(dump, kScreen);
  std::vector<LintFinding> findings;
  runTouchTarget(aui, findings);
  ASSERT_EQ(findings.size(), 1u);  // only the 18x18 close; the CTA is fine
  EXPECT_EQ(findings[0].ruleId, "touch-target");
  EXPECT_EQ(findings[0].nodeIndex, 4);
  EXPECT_DOUBLE_EQ(findings[0].score, 1.0);  // 18 < the 24px critical floor
  // Hygiene: a warning even below the critical floor.
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
}

TEST(HiddenClickableRuleTest, FlagsOffscreenClickable) {
  android::UiDump dump;
  auto root = makeNode("View", kWindow, 0);
  root.background = colors::kWhite;
  dump.push_back(root);
  auto button = makeNode("Button", {-100, 100, 80, 40}, 1);
  button.clickable = true;
  dump.push_back(button);

  const LintContext ctx(dump, kScreen);
  std::vector<LintFinding> findings;
  runHiddenClickable(ctx, findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].ruleId, "hidden-clickable");
  EXPECT_EQ(findings[0].severity, Severity::kError);  // fully off-screen
  EXPECT_DOUBLE_EQ(findings[0].score, 1.0);
}

TEST(HiddenClickableRuleTest, FlagsOpaqueOcclusionButNotTranslucent) {
  android::UiDump dump;
  auto root = makeNode("View", kWindow, 0);
  root.background = colors::kWhite;
  dump.push_back(root);
  auto button = makeNode("Button", {20, 100, 100, 48}, 1);
  button.clickable = true;
  dump.push_back(button);
  auto cover = makeNode("View", kWindow, 1);  // painted after the button
  cover.background = colors::kWhite;
  dump.push_back(cover);

  {
    const LintContext ctx(dump, kScreen);
    std::vector<LintFinding> findings;
    runHiddenClickable(ctx, findings);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("occluded"), std::string::npos);
  }
  dump[2].effAlpha = 0.5;  // a translucent veil doesn't hide the button
  {
    const LintContext ctx(dump, kScreen);
    std::vector<LintFinding> findings;
    runHiddenClickable(ctx, findings);
    EXPECT_TRUE(findings.empty());
  }
}

TEST(IdTokenRuleTest, FlagsFraudDroidVocabularyAndStarvesOnObfuscation) {
  const android::UiDump bannerDump = benignBannerDump();
  const LintContext banner(bannerDump, kScreen);
  std::vector<LintFinding> findings;
  runIdHint(banner, findings);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_NE(findings[0].message.find("iv_ad_banner"), std::string::npos);
  EXPECT_TRUE(findings[0].ago);  // CTA vocabulary: an AGO hit
  EXPECT_NE(findings[1].message.find("btn_close"), std::string::npos);
  EXPECT_FALSE(findings[1].ago);

  // The AUI fixture is fully obfuscated: the id rule sees nothing — the
  // asymmetry that FraudDroid-style matching goes blind on (§VI-C).
  const android::UiDump auiFixture = auiDump();
  const LintContext aui(auiFixture, kScreen);
  std::vector<LintFinding> none;
  runIdHint(aui, none);
  EXPECT_TRUE(none.empty());
}

// ---------------------------------------------------------------- verdict

TEST(LintEngineTest, FlagsObfuscatedAuiConfidently) {
  const LintEngine engine = LintEngine::withDefaultRules();
  const LintReport report = engine.run(auiDump(), kScreen);
  EXPECT_TRUE(report.verdict.isAui);
  EXPECT_TRUE(report.verdict.confident);
  EXPECT_GE(report.verdict.score, 0.6);
  EXPECT_EQ(report.nodesVisited, 5);
  EXPECT_TRUE(report.has("aui-size-asymmetry"));
  EXPECT_TRUE(report.has("aui-corner-upo"));
  EXPECT_FALSE(report.has("aui-id-hint"));
  ASSERT_NE(report.best("aui-size-asymmetry"), nullptr);
  EXPECT_GE(report.best("aui-size-asymmetry")->score, 0.9);

  // Option boxes are FraudDroidResult-shaped: UPO = the corner close,
  // AGO = the dominant CTA.
  ASSERT_EQ(report.verdict.upoBoxes.size(), 1u);
  EXPECT_EQ(report.verdict.upoBoxes[0], (Rect{44, 204, 18, 18}));
  ASSERT_EQ(report.verdict.agoBoxes.size(), 1u);
  EXPECT_EQ(report.verdict.agoBoxes[0], (Rect{64, 380, 232, 56}));

  // The same screen is invisible to resource-id matching.
  const baselines::FraudDroidDetector fraudDroid;
  EXPECT_FALSE(fraudDroid.analyze(auiDump(), kScreen).isAui);
}

TEST(LintEngineTest, SymmetricDialogIsConfidentlyClean) {
  const LintEngine engine = LintEngine::withDefaultRules();
  const LintReport report = engine.run(symmetricDialogDump(), kScreen);
  EXPECT_FALSE(report.verdict.isAui);
  EXPECT_TRUE(report.verdict.confident);
  EXPECT_LE(report.verdict.score, 0.15);
}

TEST(LintEngineTest, HonestBannerIsNotFlaggedButStaysUnconfident) {
  const LintEngine engine = LintEngine::withDefaultRules();
  const LintReport report = engine.run(benignBannerDump(), kScreen);
  EXPECT_FALSE(report.verdict.isAui);
  // The banner shape is suspicious enough that lint declines to vouch for
  // it: in the runtime this screen falls through to the CV pass.
  EXPECT_FALSE(report.verdict.confident);
}

TEST(LintEngineTest, HygieneFindingsAloneNeverFlagAScreen) {
  // A screen with only a tiny clickable (touch-target + id vocabulary) but
  // no dominant counterpart must stay clean: the structural asymmetry rules
  // carry the verdict.
  android::UiDump dump;
  auto root = makeNode("View", kWindow, 0);
  root.background = colors::kWhite;
  dump.push_back(root);
  auto chip = makeNode("Button", {20, 100, 30, 30}, 1);
  chip.clickable = true;
  chip.resourceId = "btn_close";
  dump.push_back(chip);

  const LintEngine engine = LintEngine::withDefaultRules();
  const LintReport report = engine.run(dump, kScreen);
  EXPECT_TRUE(report.has("touch-target"));
  EXPECT_FALSE(report.verdict.isAui);
}

TEST(LintEngineTest, EmptyDumpIsConfidentlyClean) {
  const LintEngine engine = LintEngine::withDefaultRules();
  const LintReport report = engine.run({}, kScreen);
  EXPECT_FALSE(report.verdict.isAui);
  EXPECT_TRUE(report.verdict.confident);
  EXPECT_TRUE(report.findings.empty());
}

/// FNV-1a 64-bit, fed little-endian words so the digest is host-independent.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void text(std::string_view s) {
    word(s.size());
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  }
  void box(const Rect& r) {
    for (const int v : {r.x, r.y, r.width, r.height}) {
      word(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    }
  }
};

TEST(LintEngineTest, GeneratedPopulationDigestIsStable) {
  // Pins the whole lint output over a fixed-seed generated population:
  // benign screens, footnote-4 hard negatives, native AUIs, and AUIs with
  // 75 % of third-party interstitials hosted in WebViews. Every finding
  // field and every verdict field goes into the digest (scores by bit
  // pattern), so a change to any rule, threshold, rule order, or the merge
  // that moves one finding, verdict, or box fails here.
  const LintEngine engine = LintEngine::withDefaultRules();
  apps::ScreenGenerator native({}, /*seed=*/3);
  apps::ScreenGenerator::Params webParams;
  webParams.webViewAuiProb = 0.75;
  apps::ScreenGenerator web(webParams, /*seed=*/1003);

  Fnv1a digest;
  std::map<std::string, int> firings;
  int auiVerdicts = 0;
  int virtualIdHints = 0;
  auto lint = [&](apps::GeneratedScreen screen) {
    android::WindowManager wm;
    wm.showAppWindow("com.lint.digest", std::move(screen.root), false);
    const android::UiDump dump = wm.dumpTopWindow();
    const LintReport report = engine.run(dump, wm.config().screenSize);
    digest.word(static_cast<std::uint64_t>(report.nodesVisited));
    digest.word(report.findings.size());
    for (const LintFinding& f : report.findings) {
      ++firings[f.ruleId];
      virtualIdHints +=
          f.ruleId == "aui-id-hint" && dump[f.nodeIndex].isVirtual;
      digest.text(f.ruleId);
      digest.word(static_cast<std::uint64_t>(f.severity));
      digest.text(f.message);
      digest.text(f.viewPath);
      digest.word(static_cast<std::uint64_t>(f.nodeIndex));
      digest.box(f.box);
      digest.real(f.score);
    }
    const LintVerdict& v = report.verdict;
    auiVerdicts += v.isAui;
    digest.word(v.isAui);
    digest.real(v.score);
    digest.word(v.confident);
    for (const auto* boxes : {&v.upoBoxes, &v.agoBoxes}) {
      digest.word(boxes->size());
      for (const Rect& b : *boxes) digest.box(b);
    }
  };
  for (int i = 0; i < 200; ++i) {
    lint(native.makeBenign());
    lint(native.makeHardNegative());
    lint(native.makeAui(native.randomSpec()));
    lint(web.makeAui(web.randomSpec()));
  }

  for (const char* rule :
       {"aui-size-asymmetry", "aui-corner-upo", "aui-contrast-asymmetry",
        "touch-target", "hidden-clickable", "aui-id-hint"}) {
    EXPECT_GT(firings[rule], 0) << rule;
  }
  EXPECT_GT(auiVerdicts, 0);
  EXPECT_GT(virtualIdHints, 0);
  EXPECT_EQ(digest.h, 0xB3E2313A1A9920DFULL);
}

// ---------------------------------------------- dump style metadata

TEST(DumpMetadataTest, CarriesDepthColorsAndEffectiveAlpha) {
  android::WindowManager wm;
  auto root = std::make_unique<android::View>();
  root->setBackground(colors::kWhite);

  auto faded = std::make_unique<android::View>();
  faded->setFrame({10, 10, 200, 200});
  faded->setBackground(colors::kBlack);
  faded->setAlpha(0.5);
  auto* fadedPtr = root->addChild(std::move(faded));

  auto text = std::make_unique<android::TextView>();
  text->setFrame({5, 5, 100, 30});
  text->setText("hello");
  text->setTextColor(Color::rgb(200, 30, 30));
  text->setAlpha(0.8);
  fadedPtr->addChild(std::move(text));

  auto icon = std::make_unique<android::IconView>();
  icon->setFrame({5, 50, 20, 20});
  icon->setGlyphColor(Color::rgb(30, 30, 200));
  fadedPtr->addChild(std::move(icon));

  wm.showAppWindow("com.test.app", std::move(root), false);
  const android::UiDump dump = wm.dumpTopWindow();
  ASSERT_EQ(dump.size(), 4u);

  EXPECT_EQ(dump[0].depth, 0);
  EXPECT_EQ(dump[0].background, colors::kWhite);
  EXPECT_DOUBLE_EQ(dump[0].effAlpha, 1.0);
  EXPECT_FALSE(dump[0].hasContentColor);

  EXPECT_EQ(dump[1].depth, 1);
  EXPECT_EQ(dump[1].background, colors::kBlack);
  EXPECT_DOUBLE_EQ(dump[1].effAlpha, 0.5);

  EXPECT_EQ(dump[2].className, "TextView");
  EXPECT_EQ(dump[2].depth, 2);
  EXPECT_EQ(dump[2].text, "hello");
  EXPECT_TRUE(dump[2].hasContentColor);
  EXPECT_EQ(dump[2].contentColor, Color::rgb(200, 30, 30));
  EXPECT_DOUBLE_EQ(dump[2].effAlpha, 0.4);  // 0.5 * 0.8 through the chain

  EXPECT_EQ(dump[3].className, "IconView");
  EXPECT_TRUE(dump[3].hasContentColor);
  EXPECT_EQ(dump[3].contentColor, Color::rgb(30, 30, 200));
}

// ------------------------------------------------- service pre-filter

class CountingDetector : public cv::Detector {
 public:
  mutable int calls = 0;
  std::vector<cv::Detection> detect(const gfx::Bitmap&) const override {
    ++calls;
    return {};
  }
  double costMacsPerImage() const override { return 1.0e6; }
};

/// Live view tree mirroring auiDump(): scrim + panel + loud CTA + tiny
/// corner close, all ids obfuscated.
std::unique_ptr<android::View> makeAuiContent() {
  auto root = std::make_unique<android::View>();
  root->setBackground(colors::kWhite);

  auto scrim = std::make_unique<android::View>();
  scrim->setFrame({0, 0, 360, 648});
  scrim->setBackground(colors::kBlack);
  scrim->setAlpha(0.6);
  root->addChild(std::move(scrim));

  auto panel = std::make_unique<android::View>();
  panel->setFrame({40, 176, 280, 300});
  panel->setBackground(colors::kWhite);

  auto cta = std::make_unique<android::Button>();
  cta->setFrame({24, 180, 232, 56});
  cta->setBackground(Color::rgb(230, 70, 40));
  cta->setTextColor(colors::kWhite);
  cta->setText("INSTALL NOW");
  panel->addChild(std::move(cta));

  auto close = std::make_unique<android::IconView>();
  close->setFrame({4, 4, 18, 18});
  close->setGlyphColor(Color::rgb(190, 190, 190));
  close->setClickable(true);
  panel->addChild(std::move(close));

  root->addChild(std::move(panel));
  return root;
}

TEST(LintPrefilterTest, ConfidentCleanScreenSkipsCv) {
  android::AndroidSystem system;
  CountingDetector detector;
  const LintEngine engine = LintEngine::withDefaultRules();
  core::DarpaConfig config;
  config.lintPrefilter = &engine;
  core::DarpaService service(detector, config);
  system.accessibility.connect(service);

  auto root = std::make_unique<android::View>();  // static screen, no options
  root->setBackground(colors::kWhite);
  system.windowManager.showAppWindow("com.test.app", std::move(root), false);

  service.analyzeNow();
  EXPECT_EQ(detector.calls, 0);
  EXPECT_EQ(service.stats().lintRuns, 1);
  EXPECT_EQ(service.stats().cvSkippedByLint, 1);
  EXPECT_EQ(service.stats().screenshotsTaken, 0);
  EXPECT_FALSE(service.lastWasAui());
}

TEST(LintPrefilterTest, ConfidentAuiSkipsCvAndSynthesizesDetections) {
  android::AndroidSystem system;
  CountingDetector detector;
  const LintEngine engine = LintEngine::withDefaultRules();
  core::DarpaConfig config;
  config.lintPrefilter = &engine;
  core::DarpaService service(detector, config);
  system.accessibility.connect(service);

  system.windowManager.showAppWindow("com.evil.app", makeAuiContent(), false);

  service.analyzeNow();
  EXPECT_EQ(detector.calls, 0);
  EXPECT_EQ(service.stats().cvSkippedByLint, 1);
  EXPECT_TRUE(service.lastWasAui());
  bool hasUpo = false;
  for (const cv::Detection& det : service.lastDetections()) {
    if (det.label == dataset::BoxLabel::kUpo) hasUpo = true;
  }
  EXPECT_TRUE(hasUpo);
  // Lint-sourced detections drive decoration exactly like CV ones.
  EXPECT_FALSE(service.decorationRects().empty());
}

TEST(LintPrefilterTest, WithoutPrefilterCvRunsAsBefore) {
  android::AndroidSystem system;
  CountingDetector detector;
  core::DarpaService service(detector, {});
  system.accessibility.connect(service);
  system.windowManager.showAppWindow("com.evil.app", makeAuiContent(), false);

  service.analyzeNow();
  EXPECT_EQ(detector.calls, 1);
  EXPECT_EQ(service.stats().lintRuns, 0);
  EXPECT_EQ(service.stats().screenshotsTaken, 1);
}

}  // namespace
}  // namespace darpa::analysis
