#ifndef EVOREC_COMMON_SINGLE_FLIGHT_H_
#define EVOREC_COMMON_SINGLE_FLIGHT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/result.h"

namespace evorec {

/// Counters of one SingleFlightCache.
struct SingleFlightStats {
  uint64_t hits = 0;       ///< served a ready value
  uint64_t misses = 0;     ///< ran a build
  uint64_t coalesced = 0;  ///< joined a build in flight
  uint64_t evictions = 0;  ///< entries dropped by the capacity bound
};

/// A thread-safe memo of built values in which concurrent requests for
/// one missing key share a single build. Policy:
/// - A build runs outside the cache lock, so other keys stay servable
///   meanwhile; same-key callers wait for its result.
/// - A failed build's status reaches the builder and every waiter and
///   is never cached: the next request builds again.
/// - `capacity` > 0 bounds the entry count, evicting the least recently
///   used; builds in flight hold an entry and count toward it. 0 means
///   unbounded.
/// - A build whose entry was dropped meanwhile (evicted, or by Clear)
///   still hands its result to its waiters but is not installed. A
///   builder only ever touches its own entry: a failing build whose key
///   was evicted and re-created leaves the new entry alone.
/// Values are copied out under the lock, so Value should be cheap to
/// copy (a shared_ptr); a held value stays valid after eviction.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class SingleFlightCache {
 public:
  explicit SingleFlightCache(size_t capacity = 0) : capacity_(capacity) {}
  SingleFlightCache(const SingleFlightCache&) = delete;
  SingleFlightCache& operator=(const SingleFlightCache&) = delete;

  /// The value of `key`: served ready, joined in flight, or built by
  /// `build()`, which must return Result<Value>.
  template <typename Build>
  Result<Value> GetOrBuild(const Key& key, Build&& build) {
    std::shared_ptr<Flight> own;
    std::shared_future<Result<Value>> pending;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);  // touch
        if (it->second.value.has_value()) {
          ++stats_.hits;
          return *it->second.value;
        }
        ++stats_.coalesced;
        pending = it->second.flight->future;
      } else {
        ++stats_.misses;
        own = std::make_shared<Flight>();
        Insert(key, own);
      }
    }
    if (own == nullptr) return pending.get();

    Result<Value> built = std::forward<Build>(build)();
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(key);
      if (it != entries_.end() && it->second.flight == own) {
        if (built.ok()) {
          it->second.value = *built;
          it->second.flight = nullptr;
        } else {
          lru_.erase(it->second.lru_pos);
          entries_.erase(it);
        }
      }
    }
    own->promise.set_value(built);
    return built;
  }

  /// The ready value of `key`, if any, without touching its LRU
  /// position or the stats. Never waits for a build in flight.
  std::optional<Value> Peek(const Key& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second.value;
  }

  /// Drops every entry. Builds in flight finish and hand their results
  /// to their waiters, but are not installed.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    lru_.clear();
  }

  /// Number of entries, builds in flight included.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  SingleFlightStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  /// One build in flight; its address identifies the builder's entry.
  struct Flight {
    std::promise<Result<Value>> promise;
    std::shared_future<Result<Value>> future = promise.get_future().share();
  };
  struct Entry {
    std::optional<Value> value;      ///< set once the build succeeded
    std::shared_ptr<Flight> flight;  ///< set while the build runs
    typename std::list<Key>::iterator lru_pos;
  };

  void Insert(const Key& key, std::shared_ptr<Flight> flight) {
    lru_.push_front(key);
    entries_.emplace(key, Entry{std::nullopt, std::move(flight), lru_.begin()});
    // The new entry is at the front, so with capacity_ >= 1 the back is
    // always another key.
    while (capacity_ != 0 && entries_.size() > capacity_) {
      entries_.erase(lru_.back());
      lru_.pop_back();
      ++stats_.evictions;
    }
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Key> lru_;  // most recent first
  std::unordered_map<Key, Entry, Hash> entries_;
  SingleFlightStats stats_;
};

}  // namespace evorec

#endif  // EVOREC_COMMON_SINGLE_FLIGHT_H_
