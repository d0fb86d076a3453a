// Unit tests for the Android substrate: views, looper, window manager,
// accessibility event routing, and the anchor-view offset trick.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "android/system.h"
#include "util/rng.h"

namespace darpa::android {
namespace {

// ---------------------------------------------------------------- views
TEST(ViewTest, TreeAndFindById) {
  View root;
  root.setId(1);
  auto* child = root.addChild(std::make_unique<View>());
  child->setId(2);
  auto* grandchild = child->addChild(std::make_unique<TextView>());
  grandchild->setId(3);
  EXPECT_EQ(root.findViewById(3), grandchild);
  EXPECT_EQ(root.findViewById(99), nullptr);
  EXPECT_EQ(grandchild->parent(), child);
  EXPECT_EQ(root.subtreeSize(), 3);
}

TEST(ViewTest, FindByResourceId) {
  View root;
  auto* btn = root.addChild(std::make_unique<Button>());
  btn->setResourceId("btn_close");
  EXPECT_EQ(root.findViewByResourceId("btn_close"), btn);
  EXPECT_EQ(root.findViewByResourceId("missing"), nullptr);
}

TEST(ViewTest, PositionInRoot) {
  View root;
  root.setFrame({0, 0, 100, 100});
  auto* a = root.addChild(std::make_unique<View>());
  a->setFrame({10, 20, 50, 50});
  auto* b = a->addChild(std::make_unique<View>());
  b->setFrame({5, 5, 10, 10});
  EXPECT_EQ(b->positionInRoot(), (Point{15, 25}));
}

TEST(ViewTest, HitTestFindsDeepestClickable) {
  View root;
  root.setFrame({0, 0, 100, 100});
  root.setClickable(true);
  auto* panel = root.addChild(std::make_unique<View>());
  panel->setFrame({10, 10, 50, 50});
  auto* button = panel->addChild(std::make_unique<Button>());
  button->setFrame({5, 5, 20, 10});
  EXPECT_EQ(root.hitTest({16, 16}), button);   // inside the button
  EXPECT_EQ(root.hitTest({80, 80}), &root);    // outside panel, root clickable
  EXPECT_EQ(root.hitTest({200, 200}), nullptr);
}

TEST(ViewTest, HitTestSkipsInvisible) {
  View root;
  root.setFrame({0, 0, 100, 100});
  auto* button = root.addChild(std::make_unique<Button>());
  button->setFrame({0, 0, 100, 100});
  button->setVisible(false);
  EXPECT_EQ(root.hitTest({50, 50}), nullptr);
}

TEST(ViewTest, HitTestLaterSiblingOnTop) {
  View root;
  root.setFrame({0, 0, 100, 100});
  auto* lower = root.addChild(std::make_unique<Button>());
  lower->setFrame({0, 0, 100, 100});
  auto* upper = root.addChild(std::make_unique<Button>());
  upper->setFrame({0, 0, 100, 100});
  EXPECT_EQ(root.hitTest({50, 50}), upper);
}

TEST(ViewTest, PerformClickRunsHandler) {
  Button button;
  int clicks = 0;
  button.setOnClick([&] { ++clicks; });
  EXPECT_TRUE(button.performClick());
  EXPECT_EQ(clicks, 1);
  View plain;
  EXPECT_FALSE(plain.performClick());
}

TEST(ViewTest, DrawRespectsAlphaAndVisibility) {
  gfx::Bitmap bmp(20, 20, colors::kWhite);
  gfx::Canvas canvas(bmp);
  View opaque;
  opaque.setFrame({0, 0, 10, 10});
  opaque.setBackground(colors::kBlack);
  opaque.draw(canvas, {0, 0});
  EXPECT_EQ(bmp.at(5, 5), colors::kBlack);

  gfx::Bitmap bmp2(20, 20, colors::kWhite);
  gfx::Canvas canvas2(bmp2);
  View faint;
  faint.setFrame({0, 0, 10, 10});
  faint.setBackground(colors::kBlack);
  faint.setAlpha(0.1);  // a UPO-style barely-visible element
  faint.draw(canvas2, {0, 0});
  EXPECT_GT(bmp2.at(5, 5).r, 200);  // almost white still

  gfx::Bitmap bmp3(20, 20, colors::kWhite);
  gfx::Canvas canvas3(bmp3);
  faint.setVisible(false);
  faint.setAlpha(1.0);
  faint.draw(canvas3, {0, 0});
  EXPECT_EQ(bmp3.at(5, 5), colors::kWhite);
}

TEST(ViewTest, AlphaMultipliesIntoChildren) {
  gfx::Bitmap bmp(20, 20, colors::kWhite);
  gfx::Canvas canvas(bmp);
  View parent;
  parent.setFrame({0, 0, 20, 20});
  parent.setAlpha(0.2);
  auto* child = parent.addChild(std::make_unique<View>());
  child->setFrame({0, 0, 20, 20});
  child->setBackground(colors::kBlack);
  parent.draw(canvas, {0, 0});
  EXPECT_GT(bmp.at(10, 10).r, 150);  // child dimmed by parent alpha
}

TEST(ViewTest, ClassNames) {
  EXPECT_EQ(View{}.className(), "View");
  EXPECT_EQ(TextView{}.className(), "TextView");
  EXPECT_EQ(Button{}.className(), "Button");
  EXPECT_EQ(ImageView{}.className(), "ImageView");
  EXPECT_EQ(IconView{}.className(), "IconView");
}

// ---------------------------------------------------------------- looper
TEST(LooperTest, RunsTasksInDueOrder) {
  SimClock clock;
  Looper looper(clock);
  std::vector<int> order;
  looper.postDelayed([&] { order.push_back(2); }, ms(20));
  looper.postDelayed([&] { order.push_back(1); }, ms(10));
  looper.post([&] { order.push_back(0); });
  looper.runUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(clock.now().count, 20);
}

TEST(LooperTest, FifoAmongSameInstant) {
  SimClock clock;
  Looper looper(clock);
  std::vector<int> order;
  looper.post([&] { order.push_back(1); });
  looper.post([&] { order.push_back(2); });
  looper.post([&] { order.push_back(3); });
  looper.runUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(LooperTest, RunUntilStopsAtDeadline) {
  SimClock clock;
  Looper looper(clock);
  int ran = 0;
  looper.postDelayed([&] { ++ran; }, ms(10));
  looper.postDelayed([&] { ++ran; }, ms(100));
  looper.runUntil(ms(50));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(clock.now().count, 50);
  EXPECT_EQ(looper.pendingCount(), 1u);
}

TEST(LooperTest, CancelPreventsExecution) {
  SimClock clock;
  Looper looper(clock);
  int ran = 0;
  const TaskId id = looper.postDelayed([&] { ++ran; }, ms(10));
  EXPECT_TRUE(looper.cancel(id));
  EXPECT_FALSE(looper.cancel(id));  // second cancel fails
  looper.runUntilIdle();
  EXPECT_EQ(ran, 0);
  EXPECT_TRUE(looper.idle());
}

TEST(LooperTest, CancelAfterRunFails) {
  SimClock clock;
  Looper looper(clock);
  const TaskId id = looper.post([] {});
  looper.runUntilIdle();
  EXPECT_FALSE(looper.cancel(id));
}

TEST(LooperTest, TaskCanRescheduleItself) {
  SimClock clock;
  Looper looper(clock);
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 5) looper.postDelayed(tick, ms(10));
  };
  looper.postDelayed(tick, ms(10));
  looper.runUntilIdle();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(clock.now().count, 50);
}

TEST(LooperTest, NegativeDelayClampsToNow) {
  SimClock clock;
  Looper looper(clock);
  int ran = 0;
  looper.postDelayed([&] { ++ran; }, ms(-100));
  looper.runUntil(ms(0));
  EXPECT_EQ(ran, 1);
}

TEST(LooperTest, NegativeDelayKeepsFifoOrderWithImmediatePosts) {
  SimClock clock;
  Looper looper(clock);
  std::vector<int> order;
  looper.post([&] { order.push_back(1); });
  looper.postDelayed([&] { order.push_back(2); }, ms(-50));  // clamps to now
  looper.post([&] { order.push_back(3); });
  looper.runUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.now().count, 0);  // clamping never rewinds the clock
}

TEST(LooperTest, CancelOfAlreadyRunDelayedTaskFails) {
  SimClock clock;
  Looper looper(clock);
  int ran = 0;
  const TaskId id = looper.postDelayed([&] { ++ran; }, ms(25));
  looper.runUntil(ms(25));  // task due exactly at the deadline runs
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(looper.cancel(id));
  EXPECT_EQ(looper.pendingCount(), 0u);
}

TEST(LooperTest, TasksPostedFromWithinRunUntilIdleAreDrained) {
  SimClock clock;
  Looper looper(clock);
  std::vector<int> order;
  looper.post([&] {
    order.push_back(1);
    looper.post([&] { order.push_back(3); });
    looper.postDelayed([&] { order.push_back(4); }, ms(5));
  });
  looper.post([&] { order.push_back(2); });
  looper.runUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(clock.now().count, 5);
  EXPECT_TRUE(looper.idle());
}

TEST(LooperTest, TaskPostedFromTaskBeyondDeadlineStaysPending) {
  SimClock clock;
  Looper looper(clock);
  int lateRan = 0;
  looper.postDelayed(
      [&] { looper.postDelayed([&] { ++lateRan; }, ms(100)); }, ms(10));
  looper.runUntil(ms(50));
  EXPECT_EQ(lateRan, 0);
  EXPECT_EQ(looper.pendingCount(), 1u);
  EXPECT_EQ(clock.now().count, 50);
  looper.runUntilIdle();
  EXPECT_EQ(lateRan, 1);
  EXPECT_EQ(clock.now().count, 110);
}

TEST(LooperTest, TaskCanCancelAPendingSibling) {
  SimClock clock;
  Looper looper(clock);
  int victimRan = 0;
  const TaskId victim = looper.postDelayed([&] { ++victimRan; }, ms(20));
  bool cancelled = false;
  looper.postDelayed([&] { cancelled = looper.cancel(victim); }, ms(10));
  looper.runUntilIdle();
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(victimRan, 0);
  EXPECT_TRUE(looper.idle());
}

/// The Looper's contract in its plainest form: pending tasks in a std::map
/// keyed by (due, id), and the least key runs first.
class ReferenceLooper {
 public:
  [[nodiscard]] Millis now() const { return now_; }
  [[nodiscard]] std::size_t pendingCount() const { return tasks_.size(); }

  TaskId postDelayed(std::function<void()> fn, Millis delay) {
    const TaskId id = nextId_++;
    tasks_.emplace(std::pair{now_ + std::max(delay, ms(0)), id},
                   std::move(fn));
    return id;
  }

  bool cancel(TaskId id) {
    const auto it =
        std::find_if(tasks_.begin(), tasks_.end(),
                     [id](const auto& task) { return task.first.second == id; });
    if (it == tasks_.end()) return false;
    tasks_.erase(it);
    return true;
  }

  void runUntil(Millis deadline) {
    while (runNext(deadline)) {
    }
    now_ = std::max(now_, deadline);
  }

  void runUntilIdle() {
    while (runNext(Millis{std::numeric_limits<std::int64_t>::max()})) {
    }
  }

 private:
  bool runNext(Millis deadline) {
    if (tasks_.empty() || tasks_.begin()->first.first > deadline) return false;
    auto task = tasks_.extract(tasks_.begin());
    now_ = task.key().first;
    task.mapped()();
    return true;
  }

  Millis now_;
  TaskId nextId_ = 1;
  std::map<std::pair<Millis, TaskId>, std::function<void()>> tasks_;
};

/// One observable step: 'P' a post (returned id, delay), 'R' a run (id,
/// clock), 'C' a cancel (id, result), 'U' a runUntil (deadline, pending
/// count after it), 'I' the final runUntilIdle (clock, pending count).
struct LoopEvent {
  char kind;
  std::int64_t a;
  std::int64_t b;
  bool operator==(const LoopEvent&) const = default;
};

std::ostream& operator<<(std::ostream& os, const LoopEvent& e) {
  return os << e.kind << "(" << e.a << ", " << e.b << ")";
}

/// A seeded mix of posts (negative, zero and random delays, many of them
/// due at one instant), cancels of pending, already-run and unknown ids,
/// and runUntil to random deadlines, some in the past. A task, when it
/// runs, may post and cancel too, as its own id's stream decides, so a
/// wrong run order also changes what gets posted and cancelled.
template <typename L>
class LooperScenario {
 public:
  LooperScenario(L& looper, std::uint64_t seed) : looper_(looper), seed_(seed) {}

  std::vector<LoopEvent> run(int operations) {
    Rng rng(seed_);
    for (int op = 0; op < operations; ++op) {
      const int kind = rng.uniformInt(0, 9);
      if (kind < 4) {
        post(drawDelay(rng));
      } else if (kind < 7) {
        cancel(drawId(rng));
      } else {
        const Millis deadline = looper_.now() + ms(rng.uniformInt(-20, 150));
        looper_.runUntil(deadline);
        log({'U', deadline.count, pending()});
      }
    }
    looper_.runUntilIdle();
    log({'I', looper_.now().count, pending()});
    return std::move(log_);
  }

 private:
  static Millis drawDelay(Rng& rng) {
    const int kind = rng.uniformInt(0, 9);
    if (kind < 2) return ms(-rng.uniformInt(1, 100));
    if (kind < 4) return ms(0);
    return ms(5 * rng.uniformInt(0, 40));  // coarse, so dues collide
  }

  /// A recent id (mostly pending), any issued id (mostly run), 0 or an id
  /// not issued yet (unknown).
  TaskId drawId(Rng& rng) const {
    switch (rng.uniformInt(0, 2)) {
      case 0:
        return static_cast<TaskId>(issued_ -
                                   rng.uniformInt(0, std::min(issued_, 8)));
      case 1:
        return static_cast<TaskId>(rng.uniformInt(0, issued_));
      default:
        return static_cast<TaskId>(issued_ + rng.uniformInt(1, 4));
    }
  }

  void post(Millis delay) {
    // Both loopers number tasks 1, 2, ... in posting order; the log's 'P'
    // entry holds the id the looper returned.
    const auto id = static_cast<TaskId>(++issued_);
    const TaskId got =
        looper_.postDelayed([this, id] { onRun(id); }, delay);
    log({'P', static_cast<std::int64_t>(got), delay.count});
  }

  void cancel(TaskId id) {
    log({'C', static_cast<std::int64_t>(id), looper_.cancel(id) ? 1 : 0});
  }

  void onRun(TaskId id) {
    log({'R', static_cast<std::int64_t>(id), looper_.now().count});
    Rng rng(seed_ ^ (id * 0x9E3779B97F4A7C15ULL));
    if (rng.chance(0.3)) post(drawDelay(rng));
    if (rng.chance(0.2)) cancel(drawId(rng));
  }

  [[nodiscard]] std::int64_t pending() const {
    return static_cast<std::int64_t>(looper_.pendingCount());
  }
  void log(LoopEvent event) { log_.push_back(event); }

  L& looper_;
  std::uint64_t seed_;
  int issued_ = 0;
  std::vector<LoopEvent> log_;
};

TEST(LooperTest, MatchesAnOrderedMapReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    SimClock clock;
    Looper looper(clock);
    const std::vector<LoopEvent> actual =
        LooperScenario<Looper>(looper, seed).run(20'000);
    ReferenceLooper reference;
    const std::vector<LoopEvent> expected =
        LooperScenario<ReferenceLooper>(reference, seed).run(20'000);

    const auto [a, e] = std::mismatch(actual.begin(), actual.end(),
                                      expected.begin(), expected.end());
    ASSERT_TRUE(a == actual.end() && e == expected.end())
        << "first difference at step " << (a - actual.begin()) << ": looper "
        << (a == actual.end() ? std::string("<end>") : testing::PrintToString(*a))
        << ", reference "
        << (e == expected.end() ? std::string("<end>")
                                : testing::PrintToString(*e));

    // The sequence reaches every case it claims to.
    int runs = 0, sameInstantRuns = 0, cancelled = 0, refused = 0;
    std::int64_t lastRunAt = -1;
    for (const LoopEvent& event : actual) {
      if (event.kind == 'R') {
        ++runs;
        if (event.b == lastRunAt) ++sameInstantRuns;
        lastRunAt = event.b;
      } else if (event.kind == 'C') {
        ++(event.b == 1 ? cancelled : refused);
      }
    }
    EXPECT_GT(runs, 4'000);
    EXPECT_GT(sameInstantRuns, 1'000);
    EXPECT_GT(cancelled, 500);
    EXPECT_GT(refused, 2'000);
  }
}

// -------------------------------------------------------- window manager
std::unique_ptr<View> makeScreenRoot(Color bg = colors::kWhite) {
  auto root = std::make_unique<View>();
  root->setBackground(bg);
  return root;
}

TEST(WindowManagerTest, AppFrameInsets) {
  WindowManager wm;  // 360x720, status 24, nav 48
  EXPECT_EQ(wm.appFrame(true), (Rect{0, 0, 360, 720}));
  EXPECT_EQ(wm.appFrame(false), (Rect{0, 24, 360, 648}));
}

TEST(WindowManagerTest, ShowAndPopWindows) {
  WindowManager wm;
  EXPECT_EQ(wm.topAppWindow(), nullptr);
  Window* w1 = wm.showAppWindow("com.app.one", makeScreenRoot(), false);
  Window* w2 = wm.showAppWindow("com.app.two", makeScreenRoot(), true);
  EXPECT_EQ(wm.topAppWindow(), w2);
  EXPECT_EQ(wm.appWindowCount(), 2u);
  wm.popAppWindow();
  EXPECT_EQ(wm.topAppWindow(), w1);
  wm.popAppWindow();
  EXPECT_EQ(wm.topAppWindow(), nullptr);
  wm.popAppWindow();  // no-op on empty stack
}

TEST(WindowManagerTest, CompositeShowsBarsForNonFullscreen) {
  WindowManager wm;
  wm.showAppWindow("com.app", makeScreenRoot(colors::kWhite), false);
  const gfx::Bitmap screen = wm.composite();
  // Status bar area is dark.
  EXPECT_LT(screen.meanLuma({0, 0, 360, 24}), 80.0);
  // App content area is white.
  EXPECT_GT(screen.meanLuma({100, 300, 100, 100}), 240.0);
  // Nav bar area is dark.
  EXPECT_LT(screen.meanLuma({0, 720 - 48, 360, 48}), 80.0);
}

TEST(WindowManagerTest, CompositeFullscreenHidesBars) {
  WindowManager wm;
  wm.showAppWindow("com.app", makeScreenRoot(colors::kWhite), true);
  const gfx::Bitmap screen = wm.composite();
  EXPECT_GT(screen.meanLuma({0, 0, 360, 24}), 240.0);
}

TEST(WindowManagerTest, OverlayPositionedRelativeToAppFrame) {
  WindowManager wm;
  wm.showAppWindow("com.app", makeScreenRoot(), false);
  auto marker = std::make_unique<View>();
  marker->setBackground(colors::kRed);
  const int id = wm.addOverlay(std::move(marker), {10, 10, 20, 20});
  // App frame starts at y=24, so the overlay lands at (10, 34) on screen.
  const auto loc = wm.overlayLocationOnScreen(id);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(*loc, (Point{10, 34}));
  const gfx::Bitmap screen = wm.composite();
  EXPECT_EQ(screen.at(15, 40), colors::kRed);
}

TEST(WindowManagerTest, AnchorViewRevealsWindowOffset) {
  // The paper's §IV-D trick: add a 1x1 anchor at window (0,0) and read its
  // screen location to learn the app-window offset.
  WindowManager wm;
  wm.showAppWindow("com.app", makeScreenRoot(), false);
  const int anchor = wm.addOverlay(std::make_unique<View>(), {0, 0, 1, 1});
  const auto loc = wm.overlayLocationOnScreen(anchor);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->x, 0);
  EXPECT_EQ(loc->y, 24);  // status bar height

  // Full-screen window: offset is zero.
  wm.removeAllOverlays();
  wm.showAppWindow("com.app2", makeScreenRoot(), true);
  const int anchor2 = wm.addOverlay(std::make_unique<View>(), {0, 0, 1, 1});
  EXPECT_EQ(*wm.overlayLocationOnScreen(anchor2), (Point{0, 0}));
}

TEST(WindowManagerTest, RemoveOverlay) {
  WindowManager wm;
  const int id = wm.addOverlay(std::make_unique<View>(), {0, 0, 5, 5});
  EXPECT_EQ(wm.overlayCount(), 1u);
  EXPECT_TRUE(wm.removeOverlay(id));
  EXPECT_FALSE(wm.removeOverlay(id));
  EXPECT_EQ(wm.overlayCount(), 0u);
  EXPECT_FALSE(wm.overlayLocationOnScreen(id).has_value());
}

TEST(WindowManagerTest, ClickDispatchToAppView) {
  WindowManager wm;
  auto root = makeScreenRoot();
  auto* button = root->addChild(std::make_unique<Button>());
  button->setFrame({100, 100, 80, 40});  // window coords
  int clicks = 0;
  button->setOnClick([&] { ++clicks; });
  wm.showAppWindow("com.app", std::move(root), false);
  // Window origin is (0, 24): screen (140, 144) hits the button.
  View* hit = wm.clickAt({140, 144});
  EXPECT_EQ(hit, button);
  EXPECT_EQ(clicks, 1);
  // A miss returns nullptr.
  EXPECT_EQ(wm.clickAt({10, 700}), nullptr);
}

TEST(WindowManagerTest, DumpTopWindowHasScreenCoords) {
  WindowManager wm;
  auto root = makeScreenRoot();
  auto* button = root->addChild(std::make_unique<Button>());
  button->setFrame({10, 20, 50, 30});
  button->setResourceId("btn_ok");
  static_cast<Button*>(button)->setText("ok");
  wm.showAppWindow("com.app", std::move(root), false);
  const UiDump dump = wm.dumpTopWindow();
  ASSERT_EQ(dump.size(), 2u);
  EXPECT_EQ(dump[0].className, "View");
  EXPECT_EQ(dump[1].className, "Button");
  EXPECT_EQ(dump[1].resourceId, "btn_ok");
  EXPECT_EQ(dump[1].boundsOnScreen, (Rect{10, 44, 50, 30}));
  EXPECT_TRUE(dump[1].clickable);
  EXPECT_EQ(dump[1].text, "ok");
}

// ------------------------------------------------------- accessibility
class RecordingService : public AccessibilityService {
 public:
  void onAccessibilityEvent(const AccessibilityEvent& event) override {
    events.push_back(event);
  }
  std::vector<AccessibilityEvent> events;
};

TEST(AccessibilityTest, EventCodesMatchAndroid) {
  EXPECT_EQ(eventCode(EventType::kWindowsChanged), 0x00400000u);
  EXPECT_EQ(eventCode(EventType::kViewClicked), 0x00000001u);
  EXPECT_EQ(eventCode(EventType::kWindowContentChanged), 0x00000800u);
  EXPECT_EQ(kAllEventTypes.size(), 23u);
  std::uint32_t mask = 0;
  for (EventType t : kAllEventTypes) mask |= eventCode(t);
  EXPECT_EQ(mask, kAllEventTypesMask);
}

TEST(AccessibilityTest, EventTypeNamesUnique) {
  std::vector<std::string_view> names;
  for (EventType t : kAllEventTypes) names.push_back(eventTypeName(t));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(AccessibilityTest, DeliversSubscribedEvents) {
  AndroidSystem sys;
  RecordingService service;
  service.setEventTypesMask(kAllEventTypesMask);
  sys.accessibility.connect(service);
  sys.windowManager.showAppWindow("com.app", makeScreenRoot(), false);
  sys.looper.runUntilIdle();
  ASSERT_EQ(service.events.size(), 2u);  // state changed + windows changed
  EXPECT_EQ(service.events[0].type, EventType::kWindowStateChanged);
  EXPECT_EQ(service.events[1].type, EventType::kWindowsChanged);
  EXPECT_EQ(service.events[0].packageName, "com.app");
}

TEST(AccessibilityTest, MaskFiltersEvents) {
  AndroidSystem sys;
  RecordingService service;
  service.setEventTypesMask(eventCode(EventType::kWindowContentChanged));
  sys.accessibility.connect(service);
  sys.windowManager.showAppWindow("com.app", makeScreenRoot(), false);
  sys.windowManager.notifyContentChanged(3);
  sys.looper.runUntilIdle();
  EXPECT_EQ(service.events.size(), 3u);
  for (const auto& e : service.events) {
    EXPECT_EQ(e.type, EventType::kWindowContentChanged);
  }
}

TEST(AccessibilityTest, NotificationTimeoutCoalesces) {
  AndroidSystem sys;
  RecordingService service;
  service.setNotificationTimeout(ms(200));
  sys.accessibility.connect(service);
  sys.windowManager.showAppWindow("com.app", makeScreenRoot(), false);
  sys.windowManager.notifyContentChanged(10);  // storm at t=0
  sys.looper.runUntilIdle();
  // 12 events emitted (2 window + 10 content) but only one delivery fires
  // within the first timeout window.
  EXPECT_EQ(service.events.size(), 1u);
  EXPECT_EQ(sys.accessibility.totalEmitted(), 12);
  EXPECT_EQ(sys.accessibility.totalDelivered(), 1);
  EXPECT_EQ(sys.accessibility.totalCoalesced(), 11);
}

TEST(AccessibilityTest, SpacedEventsAllDelivered) {
  AndroidSystem sys;
  RecordingService service;
  service.setNotificationTimeout(ms(200));
  sys.accessibility.connect(service);
  sys.windowManager.showAppWindow("com.app", makeScreenRoot(), false);
  sys.looper.runUntilIdle();
  service.events.clear();
  for (int i = 0; i < 5; ++i) {
    sys.looper.runFor(ms(300));
    sys.windowManager.notifyContentChanged(1);
  }
  sys.looper.runUntilIdle();
  EXPECT_EQ(service.events.size(), 5u);
}

TEST(AccessibilityTest, DisconnectStopsDelivery) {
  AndroidSystem sys;
  RecordingService service;
  sys.accessibility.connect(service);
  sys.accessibility.disconnect(service);
  EXPECT_FALSE(service.connected());
  sys.windowManager.showAppWindow("com.app", makeScreenRoot(), false);
  sys.looper.runUntilIdle();
  EXPECT_TRUE(service.events.empty());
}

TEST(AccessibilityTest, DisconnectDropsQueuedImmediateDelivery) {
  // Timeout 0 (the service default) takes the immediate path: events are
  // queued on the looper at emission. A disconnect before the looper runs
  // must drop them, and only deliveries that happen are counted.
  AndroidSystem sys;
  RecordingService service;
  ASSERT_EQ(service.notificationTimeout().count, 0);
  sys.accessibility.connect(service);
  sys.windowManager.showAppWindow("com.app", makeScreenRoot(), false);
  sys.accessibility.disconnect(service);
  sys.looper.runUntilIdle();
  EXPECT_TRUE(service.events.empty());
  EXPECT_EQ(sys.accessibility.totalDelivered(), 0);
}

TEST(AccessibilityTest, TakeScreenshotMatchesComposite) {
  AndroidSystem sys;
  RecordingService service;
  sys.accessibility.connect(service);
  sys.windowManager.showAppWindow("com.app", makeScreenRoot(colors::kBlue),
                                  false);
  const gfx::Bitmap shot = service.takeScreenshot();
  EXPECT_EQ(shot.size(), (Size{360, 720}));
  EXPECT_EQ(shot.at(180, 360), colors::kBlue);
}

TEST(AccessibilityTest, DispatchClickDrivesApp) {
  AndroidSystem sys;
  RecordingService service;
  sys.accessibility.connect(service);
  auto root = makeScreenRoot();
  auto* button = root->addChild(std::make_unique<Button>());
  button->setFrame({0, 0, 360, 100});
  int clicks = 0;
  button->setOnClick([&] { ++clicks; });
  sys.windowManager.showAppWindow("com.app", std::move(root), true);
  EXPECT_TRUE(service.dispatchClick({50, 50}));
  EXPECT_EQ(clicks, 1);
}

TEST(AccessibilityTest, ClickEmitsTouchAndClickEvents) {
  AndroidSystem sys;
  RecordingService service;
  sys.accessibility.connect(service);
  auto root = makeScreenRoot();
  root->setClickable(true);
  sys.windowManager.showAppWindow("com.app", std::move(root), true);
  sys.looper.runUntilIdle();
  service.events.clear();
  sys.windowManager.clickAt({100, 100});
  sys.looper.runUntilIdle();
  ASSERT_EQ(service.events.size(), 3u);
  EXPECT_EQ(service.events[0].type, EventType::kTouchInteractionStart);
  EXPECT_EQ(service.events[1].type, EventType::kViewClicked);
  EXPECT_EQ(service.events[2].type, EventType::kTouchInteractionEnd);
}

TEST(WindowManagerTest, ClickHandlerMayPopOwnWindow) {
  // A dialog whose confirm button dismisses the dialog: the handler pops
  // the window that owns the clicked view, so clickAt must not touch the
  // window after dispatching (regression: use-after-free on packageName).
  AndroidSystem sys;
  RecordingService service;
  sys.accessibility.connect(service);
  sys.windowManager.showAppWindow("com.app", makeScreenRoot(), true);
  auto dialog = makeScreenRoot();
  auto* button = dialog->addChild(std::make_unique<Button>());
  button->setFrame({0, 0, 360, 100});
  WindowManager* wm = &sys.windowManager;
  button->setOnClick([wm] { wm->popAppWindow(); });
  sys.windowManager.showAppWindow("com.app.dialog", std::move(dialog), true);
  sys.looper.runUntilIdle();
  service.events.clear();
  EXPECT_NE(sys.windowManager.clickAt({50, 50}), nullptr);
  sys.looper.runUntilIdle();
  // The pop interleaves window-transition events; the click event itself
  // must still carry the (now destroyed) dialog's package name.
  int clicked = 0;
  for (const AccessibilityEvent& event : service.events) {
    if (event.type != EventType::kViewClicked) continue;
    ++clicked;
    EXPECT_EQ(event.packageName, "com.app.dialog");
  }
  EXPECT_EQ(clicked, 1);
}

}  // namespace
}  // namespace darpa::android
