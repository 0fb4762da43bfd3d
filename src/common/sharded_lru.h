#ifndef RELCONT_COMMON_SHARDED_LRU_H_
#define RELCONT_COMMON_SHARDED_LRU_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace relcont {

/// Cache keys are fields joined by this separator, and the first field
/// names the catalog the entry was computed against (see
/// ShardedLru::InvalidateCatalog).
inline constexpr char kCacheKeySeparator = '\x1f';

struct ShardedLruStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Entries dropped by InvalidateCatalog (not LRU pressure).
  uint64_t invalidated = 0;
  uint64_t entries = 0;
};

using CacheStats = ShardedLruStats;
using PlanCacheStats = ShardedLruStats;

/// A sharded LRU cache of interner-independent values (rendered text, never
/// SymbolIds), so one cache serves every worker arena. The service keys it
/// by the canonical fingerprints of the queries plus catalog name, version
/// and options — see CanonicalProgramFingerprint in containment/canonical.h
/// for why such a key is invariant under variable renaming and rule
/// reordering.
///
/// Each shard holds its own mutex, recency list and counters, so lookups
/// from different workers contend only when their keys collide on a shard.
/// Thread-safe.
template <typename V>
class ShardedLru {
 public:
  /// `capacity` is the total entry budget, split evenly across
  /// `num_shards` shards (each shard holds at least one entry).
  explicit ShardedLru(size_t capacity, size_t num_shards = 8) {
    num_shards = std::max<size_t>(1, num_shards);
    per_shard_capacity_ =
        std::max<size_t>(1, (capacity + num_shards - 1) / num_shards);
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  /// Returns the cached value and refreshes its recency, or nullopt.
  /// Counts a hit or a miss.
  std::optional<V> Lookup(const std::string& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.misses;
      return std::nullopt;
    }
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->second;
  }

  /// Inserts (or refreshes) `key`, evicting the shard's least recently
  /// used entry when the shard is full.
  void Insert(const std::string& key, V value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    if (shard.lru.size() >= per_shard_capacity_) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      ++shard.evictions;
    }
    shard.lru.emplace_front(key, std::move(value));
    // The index keys view the list node's string, which never moves.
    shard.index.emplace(shard.lru.front().first, shard.lru.begin());
  }

  /// Drops every entry whose key's leading field is `catalog` (every shard
  /// is swept — invalidation is rare, lookups are not), counting each under
  /// `invalidated`; the hit/miss counters are untouched. A catalog name
  /// that itself contains kCacheKeySeparator can only drop more entries
  /// than its own, never fewer: a stale hit is impossible anyway, because
  /// the catalog version is part of every key.
  void InvalidateCatalog(std::string_view catalog) {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (auto it = shard->lru.begin(); it != shard->lru.end();) {
        const std::string& key = it->first;
        if (key.size() > catalog.size() &&
            key.compare(0, catalog.size(), catalog) == 0 &&
            key[catalog.size()] == kCacheKeySeparator) {
          shard->index.erase(key);
          it = shard->lru.erase(it);
          ++shard->invalidated;
        } else {
          ++it;
        }
      }
    }
  }

  /// Aggregated counters across shards.
  ShardedLruStats Stats() const {
    ShardedLruStats out;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      out.hits += shard->hits;
      out.misses += shard->misses;
      out.evictions += shard->evictions;
      out.invalidated += shard->invalidated;
      out.entries += shard->lru.size();
    }
    return out;
  }

  /// Drops every entry; counters keep accumulating.
  void Clear() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->index.clear();
      shard->lru.clear();
    }
  }

  size_t capacity() const { return per_shard_capacity_ * shards_.size(); }

 private:
  using Entry = std::pair<std::string, V>;

  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::string_view, typename std::list<Entry>::iterator>
        index;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidated = 0;
  };

  Shard& ShardFor(const std::string& key) {
    return *shards_[std::hash<std::string>{}(key) % shards_.size()];
  }

  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace relcont

#endif  // RELCONT_COMMON_SHARDED_LRU_H_
