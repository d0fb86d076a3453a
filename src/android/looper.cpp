#include "android/looper.h"

#include <algorithm>
#include <limits>

namespace darpa::android {

TaskId Looper::postDelayed(std::function<void()> fn, Millis delay) {
  if (delay.count < 0) delay = ms(0);
  const TaskId id = nextId_++;
  tasks_.push_back({now() + delay, id, std::move(fn)});
  return id;
}

bool Looper::cancel(TaskId id) {
  // Only pending tasks may be cancelled; a task that has run is gone.
  const auto it = std::find_if(tasks_.begin(), tasks_.end(),
                               [id](const Task& task) { return task.id == id; });
  if (it == tasks_.end()) return false;
  removeAt(static_cast<std::size_t>(it - tasks_.begin()));
  return true;
}

void Looper::removeAt(std::size_t i) {
  if (i + 1 != tasks_.size()) tasks_[i] = std::move(tasks_.back());
  tasks_.pop_back();
}

bool Looper::runNext(Millis deadline) {
  if (tasks_.empty()) return false;
  // FIFO among tasks due at the same instant: ids grow with posting order.
  const auto next = std::min_element(
      tasks_.begin(), tasks_.end(), [](const Task& a, const Task& b) {
        return a.due < b.due || (a.due == b.due && a.id < b.id);
      });
  if (next->due > deadline) return false;
  // Take the task out before running it: it may post or cancel tasks.
  const Millis due = next->due;
  std::function<void()> fn = std::move(next->fn);
  removeAt(static_cast<std::size_t>(next - tasks_.begin()));
  clock_->advanceTo(due);
  fn();
  return true;
}

void Looper::runUntil(Millis deadline) {
  while (runNext(deadline)) {
  }
  clock_->advanceTo(deadline);
}

void Looper::runUntilIdle() {
  while (runNext(Millis{std::numeric_limits<std::int64_t>::max()})) {
  }
}

}  // namespace darpa::android
