#include "types/interner.h"

#include "telemetry/telemetry.h"

namespace jsonsi::types {

namespace {

std::atomic<bool> g_interning_enabled{true};

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

bool InterningEnabled() {
  return g_interning_enabled.load(std::memory_order_relaxed);
}

void SetInterningEnabled(bool enabled) {
  g_interning_enabled.store(enabled, std::memory_order_relaxed);
}

TypeInterner::TypeInterner(const InternerOptions& options) : options_(options) {
  size_t shards = RoundUpPow2(options_.num_shards ? options_.num_shards : 1);
  shard_mask_ = shards - 1;
  per_shard_capacity_ =
      options_.capacity ? (options_.capacity + shards - 1) / shards : 1;
  if (per_shard_capacity_ == 0) per_shard_capacity_ = 1;
  shards_ = std::vector<Shard>(shards);
}

TypeInterner& TypeInterner::Global() {
  static TypeInterner* instance = new TypeInterner();
  return *instance;
}

TypeRef TypeInterner::Intern(TypeRef t) {
  if (!t || t->size() > options_.max_type_size) {
    ShardFor(t ? t->hash() : 0)
        .pass_through.fetch_add(1, std::memory_order_relaxed);
    JSONSI_COUNTER("intern.pass_through").Increment();
    return t;
  }
  Shard& shard = ShardFor(t->hash());
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.set.find(t);
  if (it != shard.set.end()) {
    ++shard.hits;
    JSONSI_COUNTER("intern.hits").Increment();
    return *it;
  }
  if (shard.set.size() >= per_shard_capacity_) {
    // Hash-cons eviction is always safe: the displaced shape just loses its
    // shared representative; nodes stay alive through their own TypeRefs.
    shard.set.erase(shard.set.begin());
    ++shard.evictions;
    JSONSI_COUNTER("intern.evictions").Increment();
  }
  t->MarkCanonical();
  shard.set.insert(t);
  ++shard.misses;
  JSONSI_COUNTER("intern.misses").Increment();
  return t;
}

bool TypeInterner::Contains(const TypeRef& t) const {
  if (!t) return false;
  Shard& shard = ShardFor(t->hash());
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.set.find(t);
  return it != shard.set.end() && it->get() == t.get();
}

InternerStats TypeInterner::stats() const {
  InternerStats s;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.hits += shard.hits;
    s.misses += shard.misses;
    s.evictions += shard.evictions;
    s.pass_through += shard.pass_through.load(std::memory_order_relaxed);
    s.size += shard.set.size();
  }
  return s;
}

void TypeInterner::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.set.clear();
    shard.hits = 0;
    shard.misses = 0;
    shard.evictions = 0;
    shard.pass_through.store(0, std::memory_order_relaxed);
  }
}

}  // namespace jsonsi::types
