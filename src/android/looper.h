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
#include <queue>
#include <unordered_set>
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

  [[nodiscard]] std::size_t pendingCount() const { return pending_.size(); }
  [[nodiscard]] bool idle() const { return pendingCount() == 0; }

  /// Lazy-deletion bookkeeping, for tests asserting the queue can never
  /// grow unboundedly across a long fleet run. Invariants:
  ///   queueDepth == pendingCount + cancelledCount   (always)
  ///   cancelledCount <= max(kCompactionFloor, queueDepth / 2)
  /// The second holds because cancel() compacts the heap (dropping every
  /// cancelled task) whenever markers reach half the queue; popped markers
  /// are purged eagerly besides.
  struct GcStats {
    std::size_t queueDepth = 0;      ///< Tasks physically in the heap.
    std::size_t pendingCount = 0;    ///< Live (schedulable) tasks.
    std::size_t cancelledCount = 0;  ///< Lazy-deletion markers outstanding.
    std::int64_t purged = 0;         ///< Cancelled tasks physically removed.
    std::int64_t compactions = 0;    ///< Heap rebuilds under marker pressure.
  };
  [[nodiscard]] GcStats gcStats() const {
    return {queue_.size(), pending_.size(), cancelled_.size(), purged_,
            compactions_};
  }

  /// Below this many markers, compaction is never worth the rebuild.
  static constexpr std::size_t kCompactionFloor = 16;

 private:
  struct Task {
    Millis due;
    TaskId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Task& a, const Task& b) const {
      // Min-heap on (due, id): FIFO among tasks due at the same instant.
      return a.due > b.due || (a.due == b.due && a.id > b.id);
    }
  };

  /// Pops and runs the next task if due by `deadline`; returns false if the
  /// queue has no runnable task within the deadline.
  bool runNext(Millis deadline);

  /// Rebuilds the heap without the cancelled tasks once markers reach half
  /// the queue — bounds both sets for arbitrarily long cancel-heavy runs
  /// (every debounced event is a cancel in a fleet session).
  void maybeCompact();

  // Session-confined (no lock by design): a Looper belongs to exactly one
  // DeviceSession and is only touched by the thread currently advancing
  // that session. Hand-offs between fleet workers go through the
  // scheduler's run-queue locks (see fleet/scheduler.h).
  SimClock* clock_ CONFINED_TO("owning session");
  std::priority_queue<Task, std::vector<Task>, Later> queue_
      CONFINED_TO("owning session");
  // pending_/cancelled_ are membership sets only (insert/erase/count) —
  // nothing ever iterates them, so their unordered order cannot leak into
  // task execution order (detlint's unordered-iteration rule guards this).
  std::unordered_set<TaskId> pending_
      CONFINED_TO("owning session");  // ids still queued and not cancelled
  std::unordered_set<TaskId> cancelled_
      CONFINED_TO("owning session");  // lazy-deletion markers
  TaskId nextId_ CONFINED_TO("owning session") = 1;
  std::int64_t purged_ CONFINED_TO("owning session") = 0;
  std::int64_t compactions_ CONFINED_TO("owning session") = 0;
};

}  // namespace darpa::android
