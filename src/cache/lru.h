// A byte-budgeted LRU map from canonical-encoding keys (cache/key.h) to
// immutable shared values. One instance per construction kind; the global
// instances live in cache/automata_cache.h. See docs/CACHING.md.
#ifndef RQ_CACHE_LRU_H_
#define RQ_CACHE_LRU_H_

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/mem.h"
#include "obs/subsystems.h"

namespace rq {
namespace cache {

// Thread-safe: one mutex per cache guards the recency list and index.
// Values are handed out as shared_ptr<const V>, so a hit is zero-copy and
// an entry evicted while a reader still holds it stays alive until the
// reader drops it. Each Get/Put bumps both the per-kind counters
// (`cache.<kind>_hits` etc.) and the cross-kind aggregates in
// obs::CacheCounters.
template <typename V>
class LruByteCache {
 public:
  LruByteCache(std::string kind, size_t byte_budget)
      : kind_(std::move(kind)),
        byte_budget_(byte_budget),
        hits_(*obs::GetCounter("cache." + kind_ + "_hits")),
        misses_(*obs::GetCounter("cache." + kind_ + "_misses")),
        evictions_(*obs::GetCounter("cache." + kind_ + "_evictions")),
        oversized_(*obs::GetCounter("cache." + kind_ + "_oversized")) {}

  LruByteCache(const LruByteCache&) = delete;
  LruByteCache& operator=(const LruByteCache&) = delete;

  const std::string& kind() const { return kind_; }

  // Returns the cached value (promoting it to most-recent) or null.
  std::shared_ptr<const V> Get(std::string_view key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      misses_.Increment();
      obs::CacheCounters::Get().misses.Increment();
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    hits_.Increment();
    obs::CacheCounters::Get().hits.Increment();
    return it->second->value;
  }

  // Inserts `value` under `key` and returns the stored pointer. If another
  // thread inserted the same key first, the existing entry wins (both
  // threads computed the same value, so sharing the first is sound).
  // `value_bytes` is the caller's estimate of the value's heap footprint.
  // A value too large to ever fit the budget is handed back uncached —
  // inserting it would only evict every resident entry before being
  // evicted itself.
  std::shared_ptr<const V> Put(std::string key, V value, size_t value_bytes) {
    auto stored = std::make_shared<const V>(std::move(value));
    size_t entry_bytes = value_bytes + key.size() + kEntryOverhead;
    std::lock_guard<std::mutex> lock(mu_);
    if (entry_bytes > byte_budget_) {
      oversized_.Increment();
      return stored;
    }
    auto it = index_.find(std::string_view(key));
    if (it != index_.end()) {
      // Duplicate key: another thread computed (and inserted) the same
      // value first. The resident entry is handed back, which is a cache
      // hit from the caller's perspective — count it as one so the
      // per-kind hit/miss/insert counters keep summing to the number of
      // cache operations.
      lru_.splice(lru_.begin(), lru_, it->second);
      hits_.Increment();
      obs::CacheCounters::Get().hits.Increment();
      return it->second->value;
    }
    lru_.push_front(Entry{std::move(key), stored, entry_bytes});
    index_.emplace(std::string_view(lru_.front().key), lru_.begin());
    bytes_ += entry_bytes;
    obs::CacheCounters::Get().inserts.Increment();
    obs::CacheCounters::Get().bytes_in_use.Add(
        static_cast<int64_t>(entry_bytes));
    // Entries outlive queries: a durable mem.cache_bytes charge (the same
    // canonical-encoding size estimate the budget uses), released on
    // eviction/Clear. Never counts against the inserting query's budget.
    MemChargeDurable(MemSubsystem::kCache,
                     static_cast<int64_t>(entry_bytes));
    while (bytes_ > byte_budget_ && !lru_.empty()) {
      EvictBackLocked();
    }
    return stored;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    index_.clear();
    lru_.clear();
    obs::CacheCounters::Get().bytes_in_use.Sub(static_cast<int64_t>(bytes_));
    MemReleaseDurable(MemSubsystem::kCache, static_cast<int64_t>(bytes_));
    bytes_ = 0;
  }

  size_t bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }
  size_t entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }

 private:
  // Rough per-entry bookkeeping cost (list node, index slot, shared_ptr
  // control block) counted against the budget alongside key and value.
  static constexpr size_t kEntryOverhead = 96;

  struct Entry {
    std::string key;
    std::shared_ptr<const V> value;
    size_t bytes;
  };

  void EvictBackLocked() {
    Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    obs::CacheCounters::Get().bytes_in_use.Sub(
        static_cast<int64_t>(victim.bytes));
    MemReleaseDurable(MemSubsystem::kCache,
                      static_cast<int64_t>(victim.bytes));
    index_.erase(std::string_view(victim.key));
    lru_.pop_back();
    evictions_.Increment();
    obs::CacheCounters::Get().evictions.Increment();
  }

  const std::string kind_;
  mutable std::mutex mu_;
  const size_t byte_budget_;
  size_t bytes_ = 0;
  // Most-recent at the front. The index's string_view keys point into the
  // list entries' strings, which are stable across splices.
  std::list<Entry> lru_;
  std::unordered_map<std::string_view,
                     typename std::list<Entry>::iterator>
      index_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Counter& oversized_;
};

}  // namespace cache
}  // namespace rq

#endif  // RQ_CACHE_LRU_H_
