#include "android/looper.h"

#include <algorithm>
#include <iterator>
#include <limits>

namespace darpa::android {

TaskId Looper::postDelayed(std::function<void()> fn, Millis delay) {
  if (delay.count < 0) delay = ms(0);
  const TaskId id = nextId_++;
  const Millis due = now() + delay;
  // Tasks run from the back. The new id is the largest, so the task goes
  // in front of every task due at or before it, and tasks due at one
  // instant run in posting order.
  auto it = tasks_.end();
  while (it != tasks_.begin() && std::prev(it)->due <= due) --it;
  tasks_.insert(it, {due, id, std::move(fn)});
  return id;
}

bool Looper::cancel(TaskId id) {
  // Only pending tasks may be cancelled; a task that has run is gone.
  const auto it = std::find_if(tasks_.begin(), tasks_.end(),
                               [id](const Task& task) { return task.id == id; });
  if (it == tasks_.end()) return false;
  tasks_.erase(it);
  return true;
}

bool Looper::runNext(Millis deadline) {
  if (tasks_.empty() || tasks_.back().due > deadline) return false;
  // Take the task out before running it: it may post or cancel tasks.
  const Millis due = tasks_.back().due;
  std::function<void()> fn = std::move(tasks_.back().fn);
  tasks_.pop_back();
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
