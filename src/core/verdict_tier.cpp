#include "core/verdict_tier.h"

namespace darpa::core {

SharedVerdictTier::SharedVerdictTier() : SharedVerdictTier(Options{}) {}

SharedVerdictTier::SharedVerdictTier(Options options) : options_(options) {
  if (options_.shards < 1) options_.shards = 8;
  shards_.reserve(static_cast<std::size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SharedVerdictTier::Shard& SharedVerdictTier::shardFor(
    std::uint64_t fingerprint) {
  // The fingerprint is already a well-mixed 64-bit hash; fold the high half
  // in so stripes stay balanced even if a producer only varies one half.
  const std::uint64_t mixed = fingerprint ^ (fingerprint >> 32);
  return *shards_[static_cast<std::size_t>(mixed % shards_.size())];
}

std::optional<SharedVerdictTier::VerdictRecord> SharedVerdictTier::find(
    std::uint64_t fingerprint) {
  if (!enabled()) return std::nullopt;
  Shard& shard = shardFor(fingerprint);
  const util::LockGuard lock(shard.mutex);
  const auto it = shard.index.find(fingerprint);
  if (it == shard.index.end()) {
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return shard.lru.front().second;  // Copied out under the lock.
}

bool SharedVerdictTier::publish(std::uint64_t fingerprint,
                                VerdictRecord record, Evidence evidence) {
  if (!enabled()) return false;
  Shard& shard = shardFor(fingerprint);
  const util::LockGuard lock(shard.mutex);
  if (evidence == Evidence::kNone) {
    // Poisoning guard: an evidence-free verdict (failed capture, lint
    // unconfident) is one session's transient problem, not fleet truth.
    ++shard.rejected;
    return false;
  }
  ++shard.publishes;
  if (const auto it = shard.index.find(fingerprint);
      it != shard.index.end()) {
    it->second->second = std::move(record);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return true;
  }
  shard.lru.emplace_front(fingerprint, std::move(record));
  shard.index[fingerprint] = shard.lru.begin();
  while (shard.lru.size() > options_.capacityPerShard) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  return true;
}

void SharedVerdictTier::clear() {
  for (const auto& shard : shards_) {
    const util::LockGuard lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
  }
}

SharedVerdictTier::Stats SharedVerdictTier::stats() const {
  Stats stats;
  for (const auto& shard : shards_) {
    const util::LockGuard lock(shard->mutex);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.publishes += shard->publishes;
    stats.rejectedUnevidenced += shard->rejected;
    stats.evictions += shard->evictions;
    stats.entries += static_cast<std::int64_t>(shard->lru.size());
  }
  return stats;
}

}  // namespace darpa::core
