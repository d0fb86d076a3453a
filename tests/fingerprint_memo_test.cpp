// Tests for the per-window memo behind WindowManager::topWindowFingerprint():
// every public mutator of View and its subclasses invalidates it, whether
// it runs on the window's root or on a view two levels down; an unchanged
// screen is walked once however often it is probed, and a window keeps its
// memo while another window covers it; and the version and kind tag that
// drive it live in padding View already had.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "android/layout.h"
#include "android/system.h"
#include "android/webview.h"
#include "core/darpa_service.h"
#include "cv/detector.h"

namespace darpa {
namespace {

using android::View;
using android::WindowManager;

/// The fingerprint a fresh walk gives: the memo's reference.
std::uint64_t dumpFingerprint(const WindowManager& wm) {
  return WindowManager::fingerprint(wm.dumpTopWindow());
}

android::VirtualNode pageWithText(std::string text) {
  android::VirtualNode page;
  page.role = android::VirtualRole::kWebArea;
  page.virtualId = "page";
  page.bounds = {0, 0, 120, 90};
  android::VirtualNode button;
  button.role = android::VirtualRole::kButton;
  button.virtualId = "cta";
  button.bounds = {10, 10, 60, 20};
  button.clickable = true;
  button.text = std::move(text);
  page.children.push_back(std::move(button));
  return page;
}

/// One public mutator: `make` builds a view of the class it needs (with
/// any state the mutation changes, e.g. a child to remove), and `mutate`
/// applies it. `moves` says whether the walk reads what it changes, so
/// the fingerprint must take a new value.
struct Mutator {
  std::string name;
  std::function<std::unique_ptr<View>()> make;
  std::function<void(View&)> mutate;
  bool moves;
};

template <typename T>
std::function<std::unique_ptr<View>()> plain() {
  return [] {
    auto view = std::make_unique<T>();
    view->setFrame({4, 4, 120, 90});
    return view;
  };
}

std::unique_ptr<View> textView() {
  auto view = std::make_unique<android::TextView>();
  view->setFrame({4, 4, 120, 90});
  view->setText("Skip");
  return view;
}

std::unique_ptr<View> withChild(std::unique_ptr<View> view) {
  auto child = std::make_unique<View>();
  child->setFrame({2, 2, 20, 20});
  child->setBackground(colors::kRed);
  view->addChild(std::move(child));
  return view;
}

std::unique_ptr<View> linearWithChildren() {
  auto layout = std::make_unique<android::LinearLayout>();
  layout->setFrame({4, 4, 120, 90});
  for (int i = 0; i < 2; ++i) {
    auto child = std::make_unique<View>();
    child->setFrame({0, 0, 30, 20});
    layout->addLayoutChild(std::move(child), {});
  }
  layout->performLayout();
  return layout;
}

std::unique_ptr<View> webView() {
  auto web = std::make_unique<android::WebView>();
  web->setFrame({4, 4, 120, 90});
  web->setPage(pageWithText("Install"));
  return web;
}

template <typename T>
T& as(View& view) {
  return static_cast<T&>(view);
}

std::vector<Mutator> allMutators() {
  using android::Button;
  using android::IconView;
  using android::ImageView;
  using android::LayoutContainer;
  using android::LinearLayout;
  using android::TextView;
  using android::WebView;
  return {
      {"View::setId", plain<View>(), [](View& v) { v.setId(77); }, false},
      {"View::setResourceId", plain<View>(),
       [](View& v) { v.setResourceId("btn_close"); }, true},
      {"View::setFrame", plain<View>(),
       [](View& v) { v.setFrame({5, 4, 120, 90}); }, true},
      {"View::setBackground", plain<View>(),
       [](View& v) { v.setBackground(colors::kBlue); }, true},
      {"View::setCornerRadius", plain<View>(),
       [](View& v) { v.setCornerRadius(9); }, false},
      {"View::setAlpha", plain<View>(), [](View& v) { v.setAlpha(0.5); },
       true},
      {"View::setVisible", plain<View>(),
       [](View& v) { v.setVisible(false); }, true},
      {"View::setClickable", plain<View>(),
       [](View& v) { v.setClickable(true); }, true},
      {"View::setOnClick", plain<View>(), [](View& v) { v.setOnClick([] {}); },
       true},
      {"View::addChild", plain<View>(),
       [](View& v) { v.addChild(std::make_unique<View>()); }, true},
      {"View::removeAllChildren", [] { return withChild(plain<View>()()); },
       [](View& v) { v.removeAllChildren(); }, true},
      {"TextView::setText", textView,
       [](View& v) { as<TextView>(v).setText("Close"); }, true},
      {"TextView::setTextColor", textView,
       [](View& v) { as<TextView>(v).setTextColor(colors::kRed); }, true},
      {"TextView::setTextCell", textView,
       [](View& v) { as<TextView>(v).setTextCell(3); }, false},
      {"Button::setText", plain<Button>(),
       [](View& v) { as<Button>(v).setText("OK"); }, true},
      {"ImageView::setPatternSeed", plain<ImageView>(),
       [](View& v) { as<ImageView>(v).setPatternSeed(99); }, false},
      {"IconView::setGlyph", plain<IconView>(),
       [](View& v) { as<IconView>(v).setGlyph(android::IconGlyph::kStar); },
       false},
      {"IconView::setGlyphColor", plain<IconView>(),
       [](View& v) { as<IconView>(v).setGlyphColor(colors::kRed); }, true},
      {"IconView::setThickness", plain<IconView>(),
       [](View& v) { as<IconView>(v).setThickness(4); }, false},
      {"LayoutContainer::addLayoutChild", linearWithChildren,
       [](View& v) {
         as<LayoutContainer>(v).addLayoutChild(std::make_unique<View>(), {});
       },
       true},
      {"LayoutContainer::setPadding", linearWithChildren,
       [](View& v) { as<LayoutContainer>(v).setPadding(6); }, false},
      {"LinearLayout::setSpacing", linearWithChildren,
       [](View& v) { as<LinearLayout>(v).setSpacing(5); }, false},
      {"LinearLayout::performLayout (after setPadding)",
       [] {
         auto layout = linearWithChildren();
         // Padded before the first probe, so only the re-layout is the
         // mutation under test; it moves every child frame.
         as<LayoutContainer>(*layout).setPadding(6);
         return layout;
       },
       [](View& v) { as<LinearLayout>(v).performLayout(); }, true},
      {"WebView::setPage", webView,
       [](View& v) { as<WebView>(v).setPage(pageWithText("Later")); }, true},
      {"WebView::clearPage", webView, [](View& v) { as<WebView>(v).clearPage(); },
       true},
  };
}

/// Probes, mutates `target`, probes again: the second probe must walk
/// exactly once and return what a fresh walk of the mutated tree gives.
void checkMutation(WindowManager& wm, View& target, const Mutator& m,
                   const char* where) {
  SCOPED_TRACE(m.name + " on " + where);
  const std::uint64_t before = wm.topWindowFingerprint();
  ASSERT_EQ(wm.topWindowFingerprint(), before);  // a memo hit
  const std::int64_t walks = wm.fingerprintWalks();
  m.mutate(target);
  const std::uint64_t after = wm.topWindowFingerprint();
  EXPECT_EQ(wm.fingerprintWalks(), walks + 1) << "the mutator did not bump";
  EXPECT_EQ(after, dumpFingerprint(wm));
  if (m.moves) {
    EXPECT_NE(after, before) << "the walk reads this field";
  } else {
    EXPECT_EQ(after, before) << "the walk does not read this field";
  }
}

TEST(FingerprintMemoTest, EveryMutatorOnTheRootInvalidates) {
  for (const Mutator& m : allMutators()) {
    WindowManager wm;
    View& root = wm.showAppWindow("com.test", m.make(), false)->content();
    checkMutation(wm, root, m, "the root");
  }
}

TEST(FingerprintMemoTest, EveryMutatorTwoLevelsDownInvalidates) {
  for (const Mutator& m : allMutators()) {
    WindowManager wm;
    auto root = std::make_unique<View>();
    root->setBackground(colors::kWhite);
    auto middle = std::make_unique<View>();
    middle->setFrame({8, 8, 200, 300});
    View* target = middle->addChild(m.make());
    root->addChild(std::move(middle));
    wm.showAppWindow("com.test", std::move(root), false);
    checkMutation(wm, *target, m, "a view two levels down");
  }
}

TEST(FingerprintMemoTest, VersionMovesOnTheViewAndEveryAncestor) {
  View root;
  View* middle = root.addChild(std::make_unique<View>());
  View* leaf = middle->addChild(std::make_unique<View>());
  View* sibling = root.addChild(std::make_unique<View>());
  const std::uint32_t rootV = root.version();
  const std::uint32_t middleV = middle->version();
  const std::uint32_t leafV = leaf->version();
  const std::uint32_t siblingV = sibling->version();
  leaf->setBackground(colors::kRed);
  EXPECT_EQ(leaf->version(), leafV + 1);
  EXPECT_EQ(middle->version(), middleV + 1);
  EXPECT_EQ(root.version(), rootV + 1);
  EXPECT_EQ(sibling->version(), siblingV);
}

TEST(FingerprintMemoTest, KindTagFollowsTheClass) {
  EXPECT_EQ(View{}.kind(), View::Kind::kPlain);
  EXPECT_EQ(android::TextView{}.kind(), View::Kind::kText);
  EXPECT_EQ(android::Button{}.kind(), View::Kind::kText);
  EXPECT_EQ(android::ImageView{}.kind(), View::Kind::kPlain);
  EXPECT_EQ(android::IconView{}.kind(), View::Kind::kIcon);
  EXPECT_EQ(android::WebView{}.kind(), View::Kind::kWeb);
  EXPECT_EQ(android::LinearLayout{}.kind(), View::Kind::kPlain);
  EXPECT_EQ(android::FrameLayout{}.kind(), View::Kind::kPlain);
}

/// View's members before the version and the kind tag, in order.
struct UntaggedViewLayout {
  virtual ~UntaggedViewLayout() = default;
  int id;
  std::string resourceId;
  Rect frame;
  Color background;
  int cornerRadius;
  double alpha;
  bool visible;
  bool clickable;
  std::function<void()> onClick;
  View* parent;
  std::vector<std::unique_ptr<View>> children;
};

TEST(FingerprintMemoTest, VersionAndKindAddNoBytes) {
  EXPECT_EQ(sizeof(View), sizeof(UntaggedViewLayout));
}

/// Flags every screenshot as an AUI with one UPO, so every analysis that
/// is not served from the cache also decorates.
class AlwaysUpoDetector : public cv::Detector {
 public:
  std::vector<cv::Detection> detect(const gfx::Bitmap&) const override {
    return {{Rect{300, 40, 24, 24}, dataset::BoxLabel::kUpo, 0.9f}};
  }
  double costMacsPerImage() const override { return 1.0; }
};

std::unique_ptr<View> screenWithText(android::TextView** outText) {
  auto root = std::make_unique<View>();
  root->setBackground(colors::kWhite);
  auto panel = std::make_unique<View>();
  panel->setFrame({20, 100, 300, 200});
  panel->setBackground(colors::kLightGray);
  auto text = std::make_unique<android::TextView>();
  text->setFrame({10, 10, 120, 30});
  text->setText("Continue");
  *outText = static_cast<android::TextView*>(panel->addChild(std::move(text)));
  root->addChild(std::move(panel));
  return root;
}

TEST(FingerprintMemoTest, UnchangedScreenWalksOnce) {
  AlwaysUpoDetector detector;
  android::AndroidSystem system;
  core::DarpaService service(detector);
  system.accessibility.connect(service);
  WindowManager& wm = system.windowManager;
  android::TextView* text = nullptr;
  wm.showAppWindow("com.test", screenWithText(&text), false);

  // The first analysis walks and runs the detector; the next four are L1
  // hits, re-decorate (overlays live outside the app window) and walk no
  // more.
  for (int i = 0; i < 5; ++i) service.analyzeNow();
  EXPECT_EQ(wm.fingerprintWalks(), 1);
  EXPECT_EQ(service.stats().verdictCacheHits, 4);
  EXPECT_FALSE(service.decorationRects().empty());

  text->setText("Skip");
  service.analyzeNow();
  EXPECT_EQ(wm.fingerprintWalks(), 2);

  wm.popAppWindow();
  wm.showAppWindow("com.test", screenWithText(&text), false);
  service.analyzeNow();
  EXPECT_EQ(wm.fingerprintWalks(), 3);
  // The same tree in a new window is the same screen: an L1 hit.
  EXPECT_EQ(service.stats().verdictCacheHits, 5);
}

TEST(FingerprintMemoTest, OnlyTheTopWindowIsMemoized) {
  WindowManager wm;
  android::TextView* lowerText = nullptr;
  android::TextView* upperText = nullptr;
  wm.showAppWindow("com.test", screenWithText(&lowerText), false);
  const std::uint64_t lower = wm.topWindowFingerprint();
  wm.showAppWindow("com.test", screenWithText(&upperText), true);
  const std::uint64_t upper = wm.topWindowFingerprint();
  EXPECT_NE(upper, lower);  // fullscreen moves every bound
  EXPECT_EQ(wm.fingerprintWalks(), 2);

  // A mutation below the top window does not touch the top window's root.
  lowerText->setText("Later");
  EXPECT_EQ(wm.topWindowFingerprint(), upper);
  EXPECT_EQ(wm.fingerprintWalks(), 2);

  // Back navigation: the lower window's root version moved while it was
  // covered, so its own memo misses and it walks, the mutated tree.
  wm.popAppWindow();
  EXPECT_EQ(wm.topWindowFingerprint(), dumpFingerprint(wm));
  EXPECT_NE(wm.topWindowFingerprint(), lower);
  EXPECT_EQ(wm.fingerprintWalks(), 3);

  // No window: nothing to walk, and the value is the empty dump's.
  wm.popAppWindow();
  EXPECT_EQ(wm.topWindowFingerprint(), WindowManager::fingerprint({}));
  EXPECT_EQ(wm.fingerprintWalks(), 3);
}

TEST(FingerprintMemoTest, CoveredWindowKeepsItsMemo) {
  WindowManager wm;
  android::TextView* lowerText = nullptr;
  android::TextView* dialogText = nullptr;
  wm.showAppWindow("com.test", screenWithText(&lowerText), false);
  const std::uint64_t lower = wm.topWindowFingerprint();
  EXPECT_EQ(wm.fingerprintWalks(), 1);

  // A dialog covers the window and is dismissed (an AUI pop). The window
  // beneath did not change, so it costs no walk when it comes back.
  wm.showAppWindow("com.test", screenWithText(&dialogText), true);
  (void)wm.topWindowFingerprint();
  EXPECT_EQ(wm.fingerprintWalks(), 2);
  wm.popAppWindow();
  EXPECT_EQ(wm.topWindowFingerprint(), lower);
  EXPECT_EQ(wm.fingerprintWalks(), 2);
  EXPECT_EQ(lower, dumpFingerprint(wm));

  // Mutated while covered: one walk on return, of the mutated tree, and
  // the memo serves the probes after it.
  wm.showAppWindow("com.test", screenWithText(&dialogText), true);
  (void)wm.topWindowFingerprint();
  EXPECT_EQ(wm.fingerprintWalks(), 3);
  lowerText->setText("Later");
  wm.popAppWindow();
  const std::uint64_t mutated = wm.topWindowFingerprint();
  EXPECT_EQ(wm.fingerprintWalks(), 4);
  EXPECT_EQ(mutated, dumpFingerprint(wm));
  EXPECT_NE(mutated, lower);
  EXPECT_EQ(wm.topWindowFingerprint(), mutated);
  EXPECT_EQ(wm.fingerprintWalks(), 4);
}

#if DARPA_BOUNDS_CHECKS
/// Breaks the rule that className() is constant per class: its name
/// changes with no touch(), so the version cannot see it.
class RenamableView : public View {
 public:
  [[nodiscard]] std::string_view className() const override { return name; }
  std::string name = "Renamable";
};

TEST(FingerprintMemoDeathTest, StaleMemoAborts) {
  WindowManager wm;
  auto root = std::make_unique<View>();
  auto* renamable = static_cast<RenamableView*>(
      root->addChild(std::make_unique<RenamableView>()));
  wm.showAppWindow("com.test", std::move(root), false);
  (void)wm.topWindowFingerprint();
  renamable->name = "Renamed";
  EXPECT_DEATH((void)wm.topWindowFingerprint(), "fingerprint memo is stale");
}
#endif  // DARPA_BOUNDS_CHECKS

}  // namespace
}  // namespace darpa
