// Memoization of the binary fusion operator.
//
// `Fuse` is a pure function of its operands' structure, and on real datasets
// the same pairs recur constantly: the Reduce phase fuses the same handful
// of record shapes against the evolving accumulator, and the recursive
// per-field fusions inside wide records repeat across millions of records
// (`Fuse(Num, Num + Null)` alone can run once per record). `FuseCache` is a
// bounded, sharded memo table for `Fuse(a, b) -> result`:
//
//   * Keys are *node identities* (pointers), which is why the cache is layered
//     on the TypeInterner (types/interner.h): after interning, structurally
//     equal operands present the same pointer, so a pointer-pair key captures
//     structural recurrence at O(1) cost with no tree walks.
//   * Keys are normalized for commutativity (Theorem 5.4): the pair is
//     ordered by pointer, so Fuse(a, b) and Fuse(b, a) share one entry.
//   * Keys carry the fuser's option fingerprint: a tuple-mode fuser
//     (max_tuple_length > 0) produces different results from the paper-exact
//     one, so their entries must not alias.
//   * Entries own TypeRefs to both operands and the result, so a cached key
//     pointer can never dangle or be recycled into a false hit.
//   * Bounded: each shard holds at most capacity/num_shards entries and
//     evicts an arbitrary resident when full (memo eviction only costs a
//     recomputation).
//
// Hit/miss/evict counters are kept internally (always, for bench reporting)
// and mirrored into the global MetricsRegistry (when telemetry is enabled)
// as fusecache.hits / fusecache.misses / fusecache.evictions. The internal
// ones live in each shard and are bumped under the shard lock already held,
// so workers share no counter cache line; stats() sums the shards exactly.

#ifndef JSONSI_FUSION_FUSE_CACHE_H_
#define JSONSI_FUSION_FUSE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "support/hash.h"
#include "types/type.h"

namespace jsonsi::fusion {

struct FuseCacheOptions {
  /// Number of independently locked shards; rounded up to a power of two.
  size_t num_shards = 16;
  /// Total resident entries across all shards.
  size_t capacity = 1 << 16;
};

struct FuseCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t size = 0;  // resident entries right now

  double HitRate() const {
    uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

/// Bounded sharded memo for Fuse. Thread-safe; see file comment.
class FuseCache {
 public:
  explicit FuseCache(const FuseCacheOptions& options = {});

  /// The process-global instance the default (memoizing) Fuser uses.
  static FuseCache& Global();

  /// Cached result for the (commutatively normalized) pair under the given
  /// option fingerprint; nullptr on miss.
  types::TypeRef Lookup(const types::TypeRef& a, const types::TypeRef& b,
                        uint64_t options_tag);

  /// Records Fuse(a, b) = result. Keeps a, b, and result alive while the
  /// entry is resident.
  void Insert(const types::TypeRef& a, const types::TypeRef& b,
              uint64_t options_tag, types::TypeRef result);

  FuseCacheStats stats() const;

  /// Drops all entries and zeroes the counters.
  void Clear();

  const FuseCacheOptions& options() const { return options_; }

 private:
  struct Key {
    const types::Type* lo = nullptr;
    const types::Type* hi = nullptr;
    uint64_t tag = 0;

    bool operator==(const Key& other) const {
      return lo == other.lo && hi == other.hi && tag == other.tag;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = Mix64(reinterpret_cast<uintptr_t>(k.lo));
      h = HashCombine(h, reinterpret_cast<uintptr_t>(k.hi));
      return static_cast<size_t>(HashCombine(h, k.tag));
    }
  };
  struct Entry {
    types::TypeRef lo;  // keepalive for the key pointers
    types::TypeRef hi;
    types::TypeRef result;
  };
  // Cache-line aligned so that workers on different shards share no line.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Entry, KeyHash> map;
    uint64_t hits = 0;  // counters: guarded by mu
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  static Key MakeKey(const types::TypeRef& a, const types::TypeRef& b,
                     uint64_t options_tag) {
    Key k;
    k.lo = a.get() <= b.get() ? a.get() : b.get();
    k.hi = a.get() <= b.get() ? b.get() : a.get();
    k.tag = options_tag;
    return k;
  }

  Shard& ShardFor(const Key& k) const {
    return shards_[(KeyHash{}(k) >> 48) & shard_mask_];
  }

  FuseCacheOptions options_;
  size_t shard_mask_ = 0;
  size_t per_shard_capacity_ = 0;
  mutable std::vector<Shard> shards_;
};

}  // namespace jsonsi::fusion

#endif  // JSONSI_FUSION_FUSE_CACHE_H_
