#include "core/verdict_tier.h"

#include <utility>

namespace darpa::core {

std::optional<VerdictCache::Entry> SharedVerdictTier::find(
    std::uint64_t fingerprint) {
  const util::LockGuard lock(mutex_);
  if (!cache_.enabled()) return std::nullopt;
  const VerdictCache::Entry* hit = cache_.find(fingerprint);
  if (hit == nullptr) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return *hit;  // Copied out under the lock.
}

void SharedVerdictTier::publish(std::uint64_t fingerprint,
                                VerdictCache::Entry record) {
  const util::LockGuard lock(mutex_);
  if (!cache_.enabled()) return;
  ++publishes_;
  cache_.put(fingerprint, std::move(record));
}

SharedVerdictTier::Stats SharedVerdictTier::stats() const {
  const util::LockGuard lock(mutex_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.publishes = publishes_;
  stats.evictions = cache_.evictions();
  stats.entries = static_cast<std::int64_t>(cache_.size());
  return stats;
}

}  // namespace darpa::core
