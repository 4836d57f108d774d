// Hash-consing of type nodes.
//
// The Map phase emits the *same* handful of structural types millions of
// times on real datasets (GitHub events repeat a few dozen shapes; Twitter a
// few hundred), yet every `InferType` call allocates a fresh node tree and
// every equality test walks both trees. `TypeInterner` canonicalizes
// structurally equal types to one shared node: after interning, equality of
// interned types is a pointer compare (the `this == &other` fast path of
// `Type::Equals`), the fusion memo (fusion/fuse_cache.h) can key on node
// identity, and repeated shapes share one allocation instead of millions.
//
// Design constraints:
//   * Thread-safe and sharded: the table is consulted from every inference
//     worker concurrently, so it is split into shards (selected by high hash
//     bits) each guarded by its own mutex. Lookup cost is one cached-hash
//     probe; structural comparison runs only on hash collision.
//   * Bounded: datasets whose types are mostly *distinct* (Wikidata's
//     key-as-data records) would otherwise grow the table — and the lifetime
//     of every dead type — without bound. Each shard holds at most
//     capacity/num_shards entries; inserting into a full shard evicts an
//     arbitrary resident first (hash-cons eviction is always safe: an
//     evicted shape simply gets a new representative later, and previously
//     returned TypeRefs keep their nodes alive on their own).
//   * Size-capped entries: types whose AST size exceeds `max_type_size` are
//     passed through un-interned — giant one-off accumulators are poor
//     sharing candidates and would churn the table.
//   * Never wrong: Intern() returns a node structurally equal to its input
//     (possibly the input itself). All optimizations that build on interning
//     are validated by the differential suite in tests/interning_test.cc.
//   * Canonical flag: a node that becomes resident is marked
//     `Type::canonical()`. The mark means "was canonical once" and outlives
//     eviction; fusion skips re-interning marked operands, and a stale mark
//     only costs fusion-memo hits (types/type.h, fusion/fuse.h).
//   * No shared counters: hit/miss/eviction counts live in each shard and
//     are bumped under the shard lock already held; pass-through counts
//     (no lock taken) are relaxed atomics in the shard the input hashes to.
//     stats() sums the shards, so the counts are exact under contention.
//
// The process-global toggle `SetInterningEnabled` is the escape hatch wired
// to `jsi --no-intern`; it also gates the fusion memo and the TreeFuser
// dedup layer (fusion/), so one switch restores the pre-interning pipeline.

#ifndef JSONSI_TYPES_INTERNER_H_
#define JSONSI_TYPES_INTERNER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "types/type.h"

namespace jsonsi::types {

/// Table shape knobs. Defaults suit the bench workloads; the CLI and tests
/// use the global instance with defaults.
struct InternerOptions {
  /// Number of independently locked shards; rounded up to a power of two.
  size_t num_shards = 16;
  /// Total resident entries across all shards.
  size_t capacity = 1 << 16;
  /// Types with size() above this are passed through un-interned.
  size_t max_type_size = 4096;
};

/// Point-in-time accounting; counters are cumulative since construction or
/// the last Clear().
struct InternerStats {
  uint64_t hits = 0;          // Intern() found an existing representative
  uint64_t misses = 0;        // Intern() inserted a new representative
  uint64_t evictions = 0;     // residents displaced by inserts into full shards
  uint64_t pass_through = 0;  // inputs skipped (too large or interning off)
  size_t size = 0;            // resident entries right now

  double HitRate() const {
    uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

/// Sharded hash-consing table. Thread-safe; see file comment.
class TypeInterner {
 public:
  explicit TypeInterner(const InternerOptions& options = {});

  /// The process-global instance used by inference and fusion.
  static TypeInterner& Global();

  /// Returns the canonical representative of `t`: an existing structurally
  /// equal resident when there is one, otherwise `t` itself (now resident).
  /// Null and over-size inputs pass through unchanged.
  TypeRef Intern(TypeRef t);

  /// True when `t` is the canonical resident for its shape right now.
  bool Contains(const TypeRef& t) const;

  InternerStats stats() const;

  /// Drops all residents and zeroes the counters. Outstanding TypeRefs
  /// remain valid (they own their nodes); only future sharing is reset.
  void Clear();

  const InternerOptions& options() const { return options_; }

 private:
  // Cache-line aligned so that workers on different shards share no line.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_set<TypeRef, TypeRefHash, TypeRefEq> set;
    uint64_t hits = 0;  // hits..evictions: guarded by mu
    uint64_t misses = 0;
    uint64_t evictions = 0;
    std::atomic<uint64_t> pass_through{0};
  };

  Shard& ShardFor(uint64_t hash) const {
    // High bits pick the shard; low bits index buckets inside the shard's
    // set, so the two decisions stay independent.
    return shards_[(hash >> 48) & shard_mask_];
  }

  InternerOptions options_;
  size_t shard_mask_ = 0;
  size_t per_shard_capacity_ = 0;
  mutable std::vector<Shard> shards_;
};

/// Process-global switch for the whole interning/memoization stack (type
/// interning at inference, the fusion memo, TreeFuser dedup). Defaults to
/// enabled; `jsi --no-intern` and the differential tests turn it off.
bool InterningEnabled();
void SetInterningEnabled(bool enabled);

/// RAII toggle for tests and scoped comparisons; restores the previous
/// setting on destruction.
class ScopedInterning {
 public:
  explicit ScopedInterning(bool enabled) : previous_(InterningEnabled()) {
    SetInterningEnabled(enabled);
  }
  ~ScopedInterning() { SetInterningEnabled(previous_); }
  ScopedInterning(const ScopedInterning&) = delete;
  ScopedInterning& operator=(const ScopedInterning&) = delete;

 private:
  bool previous_;
};

}  // namespace jsonsi::types

#endif  // JSONSI_TYPES_INTERNER_H_
