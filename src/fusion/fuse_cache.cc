#include "fusion/fuse_cache.h"

#include "telemetry/telemetry.h"

namespace jsonsi::fusion {

namespace {
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

FuseCache::FuseCache(const FuseCacheOptions& options) : options_(options) {
  size_t shards = RoundUpPow2(options_.num_shards ? options_.num_shards : 1);
  shard_mask_ = shards - 1;
  per_shard_capacity_ =
      options_.capacity ? (options_.capacity + shards - 1) / shards : 1;
  if (per_shard_capacity_ == 0) per_shard_capacity_ = 1;
  shards_ = std::vector<Shard>(shards);
}

FuseCache& FuseCache::Global() {
  static FuseCache* instance = new FuseCache();
  return *instance;
}

types::TypeRef FuseCache::Lookup(const types::TypeRef& a,
                                 const types::TypeRef& b,
                                 uint64_t options_tag) {
  Key key = MakeKey(a, b, options_tag);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.misses;
    JSONSI_COUNTER("fusecache.misses").Increment();
    return nullptr;
  }
  ++shard.hits;
  JSONSI_COUNTER("fusecache.hits").Increment();
  return it->second.result;
}

void FuseCache::Insert(const types::TypeRef& a, const types::TypeRef& b,
                       uint64_t options_tag, types::TypeRef result) {
  Key key = MakeKey(a, b, options_tag);
  Entry entry;
  entry.lo = a.get() <= b.get() ? a : b;
  entry.hi = a.get() <= b.get() ? b : a;
  entry.result = std::move(result);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.map.size() >= per_shard_capacity_ &&
      shard.map.find(key) == shard.map.end()) {
    // Memo eviction only ever costs a recomputation.
    shard.map.erase(shard.map.begin());
    ++shard.evictions;
    JSONSI_COUNTER("fusecache.evictions").Increment();
  }
  shard.map.insert_or_assign(key, std::move(entry));
}

FuseCacheStats FuseCache::stats() const {
  FuseCacheStats s;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.hits += shard.hits;
    s.misses += shard.misses;
    s.evictions += shard.evictions;
    s.size += shard.map.size();
  }
  return s;
}

void FuseCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
    shard.hits = 0;
    shard.misses = 0;
    shard.evictions = 0;
  }
}

}  // namespace jsonsi::fusion
