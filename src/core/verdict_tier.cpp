#include "core/verdict_tier.h"

#include <utility>

namespace darpa::core {

bool SharedVerdictTier::enabled() const {
  const util::LockGuard lock(mutex_);
  return cache_.enabled();
}

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

bool SharedVerdictTier::publish(std::uint64_t fingerprint,
                                VerdictCache::Entry record,
                                Evidence evidence) {
  const util::LockGuard lock(mutex_);
  if (!cache_.enabled()) return false;
  if (evidence == Evidence::kNone) {
    // Poisoning guard: an evidence-free verdict (failed capture, lint
    // unconfident) is one session's transient problem, not fleet truth.
    ++rejected_;
    return false;
  }
  ++publishes_;
  cache_.put(fingerprint, std::move(record));
  return true;
}

void SharedVerdictTier::clear() {
  const util::LockGuard lock(mutex_);
  cache_.clear();
}

SharedVerdictTier::Stats SharedVerdictTier::stats() const {
  const util::LockGuard lock(mutex_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.publishes = publishes_;
  stats.rejectedUnevidenced = rejected_;
  stats.evictions = cache_.evictions();
  stats.entries = static_cast<std::int64_t>(cache_.size());
  return stats;
}

}  // namespace darpa::core
