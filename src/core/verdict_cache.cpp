#include "core/verdict_cache.h"

#include <algorithm>
#include <utility>

namespace darpa::core {

const VerdictCache::Entry* VerdictCache::find(std::uint64_t key) {
  for (Slot& slot : slots_) {
    if (slot.key != key) continue;
    slot.lastUse = ++useClock_;
    return &slot.entry;
  }
  return nullptr;
}

void VerdictCache::put(std::uint64_t key, Entry entry) {
  if (capacity_ == 0) return;
  for (Slot& slot : slots_) {
    if (slot.key != key) continue;
    slot.entry = std::move(entry);
    slot.lastUse = ++useClock_;
    return;
  }
  if (slots_.size() < capacity_) {
    slots_.push_back({key, ++useClock_, std::move(entry)});
    return;
  }
  // Stamps are unique, so the smallest one is exactly the LRU entry.
  Slot& victim = *std::min_element(
      slots_.begin(), slots_.end(),
      [](const Slot& a, const Slot& b) { return a.lastUse < b.lastUse; });
  victim = {key, ++useClock_, std::move(entry)};
  ++evictions_;
}

}  // namespace darpa::core
