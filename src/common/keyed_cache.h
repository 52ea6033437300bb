// Thread-safe, build-once cache of immutable tables keyed by their parameters
// (NTT twiddle tables, TFHE and BFV CRT contexts). Lookups take a shared
// lock. A miss builds the value outside any lock, so a slow build never
// blocks readers of other keys, then inserts it under the exclusive lock; a
// losing racer drops its copy and adopts the winner's. Values are never
// evicted and std::map nodes are stable, so returned references stay valid
// for the life of the cache.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>

namespace alchemist {

template <typename Key, typename Value>
class KeyedCache {
 public:
  // The cached value for `key`, built as Value(args...) on first use.
  template <typename... Args>
  const Value& get(const Key& key, Args&&... args) {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      const auto it = map_.find(key);
      if (it != map_.end()) return *it->second;
    }
    auto built = std::make_unique<const Value>(std::forward<Args>(args)...);
    std::unique_lock<std::shared_mutex> lock(mu_);
    return *map_.try_emplace(key, std::move(built)).first->second;
  }

 private:
  std::shared_mutex mu_;
  std::map<Key, std::unique_ptr<const Value>> map_;
};

}  // namespace alchemist
