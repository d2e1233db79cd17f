//===- support/ShardedMemo.h - Concurrent compute-once memo -----*- C++ -*-===//
///
/// \file
/// A thread-safe memo from keys to lazily computed values, behind the
/// driver's result and profile caches. The map is split into 16 shards by
/// key hash, one mutex each, so workers on unrelated keys never contend. A shard's mutex guards only slot creation: the first caller for
/// a key computes under the slot's std::once_flag, and later callers for it
/// block on that flag (not on the shard) and then share the result, so a
/// completed key is never recomputed. Slots are shared_ptr-held, so clear()
/// and a bounded memo's eviction never free a value a caller still holds.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_SUPPORT_SHARDEDMEMO_H
#define BALSCHED_SUPPORT_SHARDEDMEMO_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace bsched {

/// Hits found a completed slot, Misses created one and paid the computation,
/// InFlightWaits arrived while another thread was computing the same key.
struct MemoStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t InFlightWaits = 0;
};

template <typename Key, typename Value> class ShardedMemo {
public:
  /// With \p MaxPerShard != 0, a miss on a full shard first drops its slots.
  explicit ShardedMemo(size_t MaxPerShard = 0) : MaxPerShard(MaxPerShard) {}

  /// The value for \p K, computed by \p Compute() on the first request. The
  /// pointer keeps it alive; an unbounded memo also keeps it until clear().
  template <typename ComputeFn>
  std::shared_ptr<const Value> get(const Key &K, ComputeFn &&Compute) {
    // Fibonacci hashing spreads hashes whose entropy sits in the high bits
    // (pointers) as well as those with it in the low bits.
    uint64_t H = static_cast<uint64_t>(std::hash<Key>{}(K));
    Shard &S = Shards[(H * 0x9e3779b97f4a7c15ull) >> 60];
    std::shared_ptr<Slot> E;
    {
      std::lock_guard<std::mutex> Lock(S.Mu);
      auto It = S.Map.find(K);
      if (It == S.Map.end()) {
        if (MaxPerShard != 0 && S.Map.size() >= MaxPerShard)
          S.Map.clear();
        It = S.Map.emplace(K, std::make_shared<Slot>()).first;
        ++S.Stats.Misses;
      } else if (It->second->Done.load(std::memory_order_acquire)) {
        ++S.Stats.Hits;
      } else {
        ++S.Stats.InFlightWaits;
      }
      E = It->second;
    }
    std::call_once(E->Once, [&] {
      E->V = Compute();
      E->Done.store(true, std::memory_order_release);
    });
    return std::shared_ptr<const Value>(E, &E->V);
  }

  MemoStats stats() {
    MemoStats Total;
    forEachShard([&Total](Shard &S) {
      Total.Hits += S.Stats.Hits;
      Total.Misses += S.Stats.Misses;
      Total.InFlightWaits += S.Stats.InFlightWaits;
    });
    return Total;
  }

  /// Drops every slot; the counters keep counting.
  void clear() {
    forEachShard([](Shard &S) { S.Map.clear(); });
  }

  void resetStats() {
    forEachShard([](Shard &S) { S.Stats = {}; });
  }

private:
  struct Slot {
    std::once_flag Once;
    std::atomic<bool> Done{false}; ///< stats-only: tells a hit from a wait.
    Value V;
  };

  struct Shard {
    std::mutex Mu;
    std::unordered_map<Key, std::shared_ptr<Slot>> Map;
    MemoStats Stats;
  };

  template <typename Fn> void forEachShard(Fn &&F) {
    for (Shard &S : Shards) {
      std::lock_guard<std::mutex> Lock(S.Mu);
      F(S);
    }
  }

  Shard Shards[16];
  size_t MaxPerShard;
};

} // namespace bsched

#endif // BALSCHED_SUPPORT_SHARDEDMEMO_H
