// Tests for the per-thread view block cache behind View::operator new: a
// destroyed view's block serves the next view of the same size built on
// the thread that destroyed it, and no other size; a thread that frees
// another thread's views reuses and drains their blocks; each size class
// keeps at most kViewBlocksPerClass blocks; a generated screen's teardown
// feeds the next screen; and ASan still sees a read of a destroyed view.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "android/layout.h"
#include "android/view.h"
#include "android/webview.h"
#include "android/window_manager.h"
#include "apps/screen_generator.h"
#include "core/decoration.h"

namespace darpa {
namespace {

using android::View;
using android::ViewBlockStats;
using android::viewBlockStats;

/// Counter deltas on this thread since construction.
class StatsDelta {
 public:
  [[nodiscard]] std::int64_t reused() const {
    return viewBlockStats().reused - start_.reused;
  }
  [[nodiscard]] std::int64_t fresh() const {
    return viewBlockStats().fresh - start_.fresh;
  }
  [[nodiscard]] std::int64_t released() const {
    return viewBlockStats().released - start_.released;
  }

 private:
  ViewBlockStats start_ = viewBlockStats();
};

struct ViewClass {
  std::string name;
  std::size_t size;
  std::function<std::unique_ptr<View>()> make;
};

template <class T>
ViewClass viewClass(std::string name) {
  return {std::move(name), sizeof(T), [] { return std::make_unique<T>(); }};
}

std::vector<ViewClass> everyViewClass() {
  return {
      viewClass<View>("View"),
      viewClass<android::TextView>("TextView"),
      viewClass<android::Button>("Button"),
      viewClass<android::ImageView>("ImageView"),
      viewClass<android::IconView>("IconView"),
      viewClass<android::WebView>("WebView"),
      viewClass<android::LinearLayout>("LinearLayout"),
      viewClass<android::FrameLayout>("FrameLayout"),
      {"DecorationView", sizeof(core::DecorationView),
       [] {
         return std::make_unique<core::DecorationView>(colors::kBlack, 2);
       }},
  };
}

TEST(ViewBlockCacheTest, EveryViewClassReusesItsOwnBlockAndNoOtherSize) {
  const std::vector<ViewClass> classes = everyViewClass();
  for (const ViewClass& cls : classes) {
    SCOPED_TRACE(cls.name);
    EXPECT_EQ(cls.size % 8, 0u);
    std::unique_ptr<View> view = cls.make();
    const void* block = view.get();
    view.reset();

    // Views of every other size take other blocks while this one waits.
    std::vector<std::unique_ptr<View>> others;
    for (const ViewClass& other : classes) {
      if (other.size == cls.size) continue;
      others.push_back(other.make());
      EXPECT_NE(others.back().get(), block) << other.name;
    }

    const StatsDelta delta;
    view = cls.make();
    EXPECT_EQ(view.get(), block);
    EXPECT_EQ(delta.reused(), 1);
    EXPECT_EQ(delta.fresh(), 0);
  }
}

TEST(ViewBlockCacheTest, ChildVectorsRecycleTheirStorage) {
  auto parent = std::make_unique<View>();
  for (int i = 0; i < 40; ++i) parent->addChild(std::make_unique<View>());
  parent.reset();

  // The same tree again: its 41 views and every step of the child
  // vector's growth come from the blocks the first tree gave back.
  const StatsDelta delta;
  parent = std::make_unique<View>();
  for (int i = 0; i < 40; ++i) parent->addChild(std::make_unique<View>());
  EXPECT_EQ(delta.fresh(), 0);
  EXPECT_GT(delta.reused(), 41);
  EXPECT_EQ(parent->children().size(), 40u);
}

/// Constructed on a thread before the thread frees its first view, so it is
/// destroyed after that thread's cache has drained: it reads the counters
/// left by the drain, then frees a view late.
struct ExitProbe {
  std::int64_t* releasedByDrain = nullptr;
  std::int64_t* releasedByLateFree = nullptr;
  std::unique_ptr<View> late;
  ExitProbe() = default;
  ExitProbe(const ExitProbe&) = delete;
  ExitProbe& operator=(const ExitProbe&) = delete;
  ~ExitProbe() {
    if (releasedByDrain == nullptr) return;
    *releasedByDrain = viewBlockStats().released;
    late.reset();
    *releasedByLateFree = viewBlockStats().released - *releasedByDrain;
  }
};

TEST(ViewBlockCacheTest, ViewFreedOnAnotherThreadIsReusedThereAndDrained) {
  std::unique_ptr<View> built;
  std::thread([&] { built = std::make_unique<android::ImageView>(); }).join();
  const void* block = built.get();

  std::int64_t releasedByDrain = -1;
  std::int64_t releasedByLateFree = -1;
  std::thread([&] {
    thread_local ExitProbe probe;
    probe.releasedByDrain = &releasedByDrain;
    probe.releasedByLateFree = &releasedByLateFree;
    probe.late = std::make_unique<android::IconView>();

    const StatsDelta delta;
    built.reset();
    auto next = std::make_unique<android::ImageView>();
    EXPECT_EQ(next.get(), block);
    EXPECT_EQ(delta.reused(), 1);
    EXPECT_EQ(delta.fresh(), 0);
    // `next` goes back to this thread's cache on return; the thread's
    // exit then hands it to ::operator delete.
  }).join();
  EXPECT_EQ(releasedByDrain, 1);
  // A view freed after the drain bypasses the cache instead of leaking.
  EXPECT_EQ(releasedByLateFree, 1);
}

TEST(ViewBlockCacheTest, FreesBeyondTheBoundAreReleased) {
  constexpr int kExtra = 5;
  constexpr int kViews = android::kViewBlocksPerClass + kExtra;
  std::vector<std::unique_ptr<View>> icons;
  for (int i = 0; i < kViews; ++i) {
    icons.push_back(std::make_unique<android::IconView>());
  }
  // kViews allocations emptied the class's free list.
  const StatsDelta frees;
  icons.clear();
  EXPECT_EQ(frees.released(), kExtra);

  const StatsDelta refill;
  for (int i = 0; i < kViews; ++i) {
    icons.push_back(std::make_unique<android::IconView>());
  }
  EXPECT_EQ(refill.reused(), android::kViewBlocksPerClass);
  EXPECT_EQ(refill.fresh(), kExtra);
}

/// Generates, shows and pops 200 screens, alternating AUI and benign, from
/// one fixed seed.
void showAndPopScreens() {
  android::WindowManager wm;
  const Rect frame = wm.appFrame(false);
  apps::ScreenGenerator::Params params;
  params.frame = {frame.width, frame.height};
  apps::ScreenGenerator generator(params, 2024);
  for (int i = 0; i < 200; ++i) {
    apps::GeneratedScreen screen = i % 2 == 0
                                       ? generator.makeAui(generator.randomSpec())
                                       : generator.makeBenign();
    wm.showAppWindow("com.test", std::move(screen.root), false);
    wm.popAppWindow();
  }
}

TEST(ViewBlockCacheTest, GeneratedScreensAllocateNothingAfterWarmUp) {
  showAndPopScreens();
  const StatsDelta delta;
  showAndPopScreens();
  EXPECT_EQ(delta.fresh(), 0);
  EXPECT_EQ(delta.released(), 0);
  EXPECT_GT(delta.reused(), 200 * 10);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(ViewBlockCacheDeathTest, UseAfterFreeIsReported) {
  EXPECT_DEATH(
      {
        View* view = new android::TextView();
        View* volatile stale = view;
        delete view;
        const volatile int id = stale->id();
        (void)id;
      },
      "use-after-poison");
}
#endif  // __SANITIZE_ADDRESS__

}  // namespace
}  // namespace darpa
