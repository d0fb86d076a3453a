// A deterministic single-threaded message loop on simulated time.
//
// Plays the role of android.os.Looper/Handler for the whole substrate: the
// accessibility manager delivers events through it, DARPA's ct-debounce
// timer lives in it, and app screen transitions are scheduled on it. Because
// it advances a SimClock instead of sleeping, every timing-sensitive
// experiment (the 200 ms debounce, the ct sweep of Table VIII/Fig. 8) is
// exactly reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/clock.h"
#include "util/thread_annotations.h"

namespace darpa::android {

using TaskId = std::uint64_t;

class Looper {
 public:
  /// The looper borrows the clock; the clock must outlive the looper.
  explicit Looper(SimClock& clock) : clock_(&clock) {}

  [[nodiscard]] SimClock& clock() { return *clock_; }
  [[nodiscard]] Millis now() const { return clock_->now(); }

  /// Schedules `fn` to run immediately (at the current simulated instant, in
  /// FIFO order with other due tasks).
  TaskId post(std::function<void()> fn) { return postDelayed(std::move(fn), ms(0)); }

  /// Schedules `fn` to run `delay` from now. Negative delays clamp to zero.
  TaskId postDelayed(std::function<void()> fn, Millis delay);

  /// Cancels a pending task; returns whether it was still pending.
  bool cancel(TaskId id);

  /// Runs tasks due up to and including `deadline`, advancing the clock task
  /// by task, then advances the clock to `deadline`.
  void runUntil(Millis deadline);

  /// Runs for `duration` of simulated time.
  void runFor(Millis duration) { runUntil(now() + duration); }

  /// Drains every pending task (tasks may schedule more tasks); the clock
  /// ends at the last task's due time.
  void runUntilIdle();

  [[nodiscard]] std::size_t pendingCount() const { return tasks_.size(); }
  [[nodiscard]] bool idle() const { return pendingCount() == 0; }

 private:
  struct Task {
    Millis due;
    TaskId id;
    std::function<void()> fn;
  };

  /// Runs the (due, id)-least task if it is due by `deadline`; returns
  /// false if no pending task is due within the deadline.
  bool runNext(Millis deadline);

  /// Removes tasks_[i]; the order of tasks_ carries no meaning.
  void removeAt(std::size_t i);

  // Session-confined (no lock by design): a Looper belongs to exactly one
  // DeviceSession and is only touched by the fleet worker running that
  // session (see fleet/fleet.h).
  SimClock* clock_ CONFINED_TO("owning session");
  /// Every pending task, unordered: a session keeps a few dozen at most,
  /// so runNext() scans for the next one and cancel() erases by id.
  std::vector<Task> tasks_ CONFINED_TO("owning session");
  TaskId nextId_ CONFINED_TO("owning session") = 1;
};

}  // namespace darpa::android
