#include "core/verdict_tier.h"

#include <bit>
#include <utility>

namespace darpa::core {

/// A published verdict. Only `referenced` changes after publication.
struct SharedVerdictTier::Record {
  Record(std::uint64_t k, VerdictCache::Entry e)
      : key(k), entry(std::move(e)) {}

  const std::uint64_t key;
  const VerdictCache::Entry entry;
  std::atomic<bool> referenced{false};  ///< The CLOCK bit.
};

/// Open-addressed slots with linear probing. A slot's key is written once,
/// before its record pointer first turns non-null; after that only the
/// record pointer changes: replaced on a re-publish, pointed at `tombstone`
/// on an eviction, and back at a record when the key is published again.
struct SharedVerdictTier::Table {
  struct Slot {
    std::uint64_t key = 0;
    std::atomic<Record*> record{nullptr};  ///< Null: empty.
  };

  explicit Table(std::size_t size)
      : mask(size - 1), slots(std::make_unique<Slot[]>(size)) {}

  [[nodiscard]] std::size_t size() const { return mask + 1; }

  /// Where `key` lives: the slot holding it (live or tombstone), else the
  /// empty slot that ends its probe chain, with the record pointer read
  /// there. Each pointer is loaded once, since a slot that is empty at
  /// that load may take another key right after it; the acquire load
  /// orders the slot's key before it. publish() keeps a quarter of the
  /// slots empty, so every chain ends.
  struct Probe {
    std::size_t slot;
    Record* record;
  };
  [[nodiscard]] Probe probe(std::uint64_t key) const {
    std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      Record* r = slots[i].record.load(std::memory_order_acquire);
      if (r == nullptr || slots[i].key == key) return {i, r};
    }
  }

  const std::size_t mask;
  const std::unique_ptr<Slot[]> slots;
  Record tombstone{0, {}};  ///< Marks an evicted key's slot; never served.
};

namespace {

/// This thread's counter stripe: threads take stripes round-robin in the
/// order they first probe any tier, so up to kStripes concurrent workers
/// each count on a line of their own.
std::size_t threadStripe() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed);
  return stripe;
}

}  // namespace

SharedVerdictTier::SharedVerdictTier(std::size_t capacity)
    : capacity_(capacity) {
  if (capacity_ == 0) return;
  tables_.push_back(std::make_unique<Table>(std::bit_ceil(2 * capacity_)));
  table_.store(tables_.back().get(), std::memory_order_release);
}

SharedVerdictTier::~SharedVerdictTier() = default;

std::optional<VerdictCache::Entry> SharedVerdictTier::find(
    std::uint64_t fingerprint) {
  const Table* table = table_.load(std::memory_order_acquire);
  if (table == nullptr) return std::nullopt;
  Stripe& stripe = stripes_[threadStripe() % kStripes];
  Record* record = table->probe(fingerprint).record;
  if (record == nullptr || record == &table->tombstone) {
    stripe.misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  // Written only when it changes, so a hot record's line stays shared.
  if (!record->referenced.load(std::memory_order_relaxed)) {
    record->referenced.store(true, std::memory_order_relaxed);
  }
  stripe.hits.fetch_add(1, std::memory_order_relaxed);
  return record->entry;  // Copied out; the record outlives every reader.
}

void SharedVerdictTier::publish(std::uint64_t fingerprint,
                                VerdictCache::Entry record) {
  const util::LockGuard lock(mutex_);
  if (capacity_ == 0) return;
  ++publishes_;
  records_.push_back(std::make_unique<Record>(fingerprint, std::move(record)));
  Record* fresh = records_.back().get();
  Table* table = tables_.back().get();
  auto [at, resident] = table->probe(fingerprint);

  if (resident != nullptr && resident != &table->tombstone) {
    // A resident key: the new value replaces the old, and the re-publish
    // counts as a use. Readers still copying the old record keep it.
    fresh->referenced.store(true, std::memory_order_relaxed);
    table->slots[at].record.store(fresh, std::memory_order_release);
    return;
  }

  if (live_ == static_cast<std::int64_t>(capacity_)) {
    // CLOCK: clear referenced bits up to the first unreferenced live record
    // and evict it. Readers may re-set bits behind the hand, so after two
    // full turns the hand evicts whatever live record it stands on.
    const std::size_t turns = 2 * table->size();
    for (std::size_t step = 0;; ++step) {
      Table::Slot& slot = table->slots[hand_];
      hand_ = (hand_ + 1) & table->mask;
      Record* r = slot.record.load(std::memory_order_relaxed);
      if (r == nullptr || r == &table->tombstone) continue;
      if (step < turns && r->referenced.load(std::memory_order_relaxed)) {
        r->referenced.store(false, std::memory_order_relaxed);
        continue;
      }
      slot.record.store(&table->tombstone, std::memory_order_release);
      --live_;
      ++evictions_;
      break;
    }
  }

  if (resident == nullptr) {
    // A new key takes an empty slot. Before it would fill three quarters
    // of the table, move the live records to a fresh table (tombstones
    // stay behind) and swap it in for new readers.
    if (used_ + 1 > table->size() * 3 / 4) {
      auto next = std::make_unique<Table>(table->size());
      for (std::size_t i = 0; i < table->size(); ++i) {
        Record* r = table->slots[i].record.load(std::memory_order_relaxed);
        if (r == nullptr || r == &table->tombstone) continue;
        Table::Slot& slot = next->slots[next->probe(r->key).slot];
        slot.key = r->key;
        slot.record.store(r, std::memory_order_relaxed);
      }
      table = next.get();
      tables_.push_back(std::move(next));
      table_.store(table, std::memory_order_release);
      used_ = static_cast<std::size_t>(live_);
      hand_ = 0;
      at = table->probe(fingerprint).slot;
    }
    table->slots[at].key = fingerprint;
    ++used_;
  }
  table->slots[at].record.store(fresh, std::memory_order_release);
  ++live_;
}

SharedVerdictTier::Stats SharedVerdictTier::stats() const {
  Stats stats;
  for (const Stripe& stripe : stripes_) {
    stats.hits += stripe.hits.load(std::memory_order_relaxed);
    stats.misses += stripe.misses.load(std::memory_order_relaxed);
  }
  const util::LockGuard lock(mutex_);
  stats.publishes = publishes_;
  stats.evictions = evictions_;
  stats.entries = live_;
  return stats;
}

}  // namespace darpa::core
