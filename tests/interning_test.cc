// Differential property suite for hash-consed interning + memoized fusion.
//
// The optimization contract is *invisibility*: with interning, the fusion
// memo, and TreeFuser dedup enabled, every pipeline (InferType, Fuse,
// TreeFuser, SchemaInferencer, StreamingInferencer) must produce schemas
// STRUCTURALLY IDENTICAL to the unoptimized path. This suite enforces that
// over thousands of seeded random values (tests/random_value_gen.h) and over
// the table workloads (datagen generators), including the Wikidata-style
// wide-record shape whose mostly-distinct types exercise interner eviction
// and the dedup spill path.
//
// It also pins the identity property interning adds (equal interned types
// are pointer-identical), the bounded-table behaviour of TypeInterner and
// FuseCache (capacity, eviction, pass-through), and thread-safety: the
// concurrency test at the bottom hammers one interner + cache from many
// threads on overlapping inputs and runs under ASan/UBSan and TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/schema_inferencer.h"
#include "core/streaming_inferencer.h"
#include "datagen/generator.h"
#include "fusion/fuse.h"
#include "fusion/fuse_cache.h"
#include "fusion/tree_fuser.h"
#include "inference/direct_infer.h"
#include "inference/infer.h"
#include "json/parser.h"
#include "json/serializer.h"
#include "random_value_gen.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "types/interner.h"
#include "types/printer.h"

namespace jsonsi {
namespace {

using fusion::FuseCache;
using fusion::FuseCacheOptions;
using fusion::FuseOptions;
using fusion::Fuser;
using fusion::TreeFuser;
using json::ValueRef;
using types::InternerOptions;
using types::ScopedInterning;
using types::ToString;
using types::Type;
using types::TypeInterner;
using types::TypeRef;

// A Fuser with every optimization layer off: the reference implementation
// the optimized path must be indistinguishable from.
Fuser PlainFuser() {
  FuseOptions opts;
  opts.intern = false;
  opts.memoize = false;
  opts.dedup = false;
  return Fuser(opts);
}

// ---------------------------------------------------------------------------
// Differential properties over seeded random values.
// ---------------------------------------------------------------------------

class InterningDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InterningDifferential, InferIsUnchangedByInterning) {
  const uint64_t seed = GetParam();
  auto values = jsonsi::testing::RandomValues(seed, 100);
  for (const ValueRef& v : values) {
    TypeRef plain;
    {
      ScopedInterning off(false);
      plain = inference::InferType(*v);
    }
    TypeRef interned;
    {
      ScopedInterning on(true);
      interned = inference::InferType(*v);
    }
    ASSERT_TRUE(plain->Equals(*interned))
        << "seed=" << seed << "\n plain=" << ToString(*plain)
        << "\n interned=" << ToString(*interned);
  }
}

TEST_P(InterningDifferential, PairwiseFuseAgreesWithPlainPath) {
  const uint64_t seed = GetParam();
  ScopedInterning on(true);
  auto values = jsonsi::testing::RandomValues(seed + 100, 60);
  std::vector<TypeRef> ts;
  ts.reserve(values.size());
  for (const ValueRef& v : values) ts.push_back(inference::InferType(*v));
  const Fuser plain = PlainFuser();
  const Fuser memo;  // default: intern + memoize on
  for (size_t i = 0; i < ts.size(); ++i) {
    for (size_t j = i; j < ts.size(); j += 7) {
      TypeRef want = plain.Fuse(ts[i], ts[j]);
      TypeRef got = memo.Fuse(ts[i], ts[j]);
      ASSERT_TRUE(want->Equals(*got))
          << "seed=" << seed << "\n a=" << ToString(*ts[i])
          << "\n b=" << ToString(*ts[j]) << "\n want=" << ToString(*want)
          << "\n got=" << ToString(*got);
    }
  }
}

TEST_P(InterningDifferential, TreeFuserDedupAgreesWithPlainFold) {
  const uint64_t seed = GetParam();
  // Duplicate-heavy stream: a shared pool sampled with repetition, so the
  // dedup multiset sees real multiplicities (the workload shape interning
  // is built for).
  auto pool = jsonsi::testing::RandomValues(seed + 200, 16);
  Rng rng(seed + 300);
  std::vector<ValueRef> stream;
  for (size_t i = 0; i < 400; ++i) stream.push_back(rng.Pick(pool));

  TypeRef plain;
  {
    ScopedInterning off(false);
    TreeFuser fuser{PlainFuser()};
    for (const ValueRef& v : stream) fuser.Add(inference::InferType(*v));
    plain = fuser.Finish();
  }
  TypeRef optimized;
  {
    ScopedInterning on(true);
    TreeFuser fuser;  // default fuser: intern + memo + dedup
    for (const ValueRef& v : stream) fuser.Add(inference::InferType(*v));
    EXPECT_GT(fuser.pending_distinct(), 0u);
    EXPECT_LE(fuser.pending_distinct(), pool.size());
    optimized = fuser.Finish();
  }
  ASSERT_TRUE(plain->Equals(*optimized))
      << "seed=" << seed << "\n plain=" << ToString(*plain)
      << "\n optimized=" << ToString(*optimized);
}

TEST_P(InterningDifferential, DedupSpillPathAgreesOnDistinctHeavyStreams) {
  const uint64_t seed = GetParam();
  // Mostly-distinct stream with a tiny dedup buffer: every Add soon flushes
  // pending entries into the binary-counter slots, exercising the spill.
  auto values = jsonsi::testing::RandomValues(seed + 400, 120);

  TypeRef plain;
  {
    ScopedInterning off(false);
    TreeFuser fuser{PlainFuser()};
    for (const ValueRef& v : values) fuser.Add(inference::InferType(*v));
    plain = fuser.Finish();
  }
  TypeRef optimized;
  {
    ScopedInterning on(true);
    FuseOptions opts;  // defaults on, but force constant spilling
    opts.dedup_max_pending = 4;
    TreeFuser fuser{Fuser(opts)};
    for (const ValueRef& v : values) fuser.Add(inference::InferType(*v));
    optimized = fuser.Finish();
  }
  ASSERT_TRUE(plain->Equals(*optimized)) << "seed=" << seed;
}

TEST_P(InterningDifferential, SchemaInferencerEndToEndAgrees) {
  const uint64_t seed = GetParam();
  auto values = jsonsi::testing::RandomValues(seed + 500, 150);
  core::InferenceOptions options;
  options.num_threads = 4;
  options.num_partitions = 5;
  core::Schema plain, optimized;
  {
    ScopedInterning off(false);
    plain = core::SchemaInferencer(options).InferFromValues(values);
  }
  {
    ScopedInterning on(true);
    optimized = core::SchemaInferencer(options).InferFromValues(values);
  }
  ASSERT_TRUE(plain.type->Equals(*optimized.type))
      << "seed=" << seed << "\n plain=" << plain.ToString()
      << "\n optimized=" << optimized.ToString();
  EXPECT_EQ(plain.stats.record_count, optimized.stats.record_count);
  EXPECT_EQ(plain.stats.distinct_type_count,
            optimized.stats.distinct_type_count);
}

TEST_P(InterningDifferential, StreamingInferencerSnapshotAndMergeAgree) {
  const uint64_t seed = GetParam();
  auto values = jsonsi::testing::RandomValues(seed + 600, 80);
  auto run = [&](bool enabled) {
    ScopedInterning guard(enabled);
    core::StreamingInferencer left, right;
    for (size_t i = 0; i < values.size(); ++i) {
      (i % 2 ? right : left).AddValue(values[i]);
    }
    left.Merge(right);
    return left.Snapshot();
  };
  core::Schema plain = run(false);
  core::Schema optimized = run(true);
  ASSERT_TRUE(plain.type->Equals(*optimized.type)) << "seed=" << seed;
  EXPECT_EQ(plain.stats.distinct_type_count,
            optimized.stats.distinct_type_count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterningDifferential,
                         ::testing::Range<uint64_t>(0, 12));

// ---------------------------------------------------------------------------
// Differential checks over the table workloads (datagen generators),
// including the Wikidata wide-record regression shape: thousands of
// key-as-data fields, mostly-distinct types, wide fused schema.
// ---------------------------------------------------------------------------

class InterningDatasets
    : public ::testing::TestWithParam<jsonsi::datagen::DatasetId> {};

TEST_P(InterningDatasets, PipelineAgreesOnTableWorkload) {
  auto gen = datagen::MakeGenerator(GetParam(), /*seed=*/42);
  auto values = gen->GenerateMany(300);
  TypeRef plain;
  {
    ScopedInterning off(false);
    TreeFuser fuser{PlainFuser()};
    for (const ValueRef& v : values) fuser.Add(inference::InferType(*v));
    plain = fuser.Finish();
  }
  TypeRef optimized;
  {
    ScopedInterning on(true);
    TreeFuser fuser;
    for (const ValueRef& v : values) fuser.Add(inference::InferType(*v));
    optimized = fuser.Finish();
  }
  ASSERT_TRUE(plain->Equals(*optimized))
      << datagen::DatasetName(GetParam()) << "\n plain=" << ToString(*plain)
      << "\n optimized=" << ToString(*optimized);
}

INSTANTIATE_TEST_SUITE_P(Tables, InterningDatasets,
                         ::testing::Values(datagen::DatasetId::kGitHub,
                                           datagen::DatasetId::kTwitter,
                                           datagen::DatasetId::kWikidata,
                                           datagen::DatasetId::kNYTimes));

// ---------------------------------------------------------------------------
// Identity properties interning adds on top of structural equality.
// ---------------------------------------------------------------------------

TEST(TypeInternerTest, EqualInternedTypesArePointerIdentical) {
  ScopedInterning on(true);
  // Equal values inferred independently share one node tree after interning.
  auto values_a = jsonsi::testing::RandomValues(7, 50);
  auto values_b = jsonsi::testing::RandomValues(7, 50);  // same seed
  for (size_t i = 0; i < values_a.size(); ++i) {
    TypeRef a = inference::InferType(*values_a[i]);
    TypeRef b = inference::InferType(*values_b[i]);
    ASSERT_TRUE(a->Equals(*b));
    if (a->is_record() || a->is_array()) {
      EXPECT_EQ(a.get(), b.get()) << "value #" << i << ": " << ToString(*a);
    }
  }
}

TEST(TypeInternerTest, InternIsIdempotentAndStructurePreserving) {
  TypeInterner interner;
  auto values = jsonsi::testing::RandomValues(11, 30);
  for (const ValueRef& v : values) {
    TypeRef t;
    {
      ScopedInterning off(false);  // fresh, unshared tree
      t = inference::InferType(*v);
    }
    TypeRef once = interner.Intern(t);
    TypeRef twice = interner.Intern(once);
    ASSERT_TRUE(t->Equals(*once));
    EXPECT_EQ(once.get(), twice.get());
    EXPECT_EQ(once.get(), interner.Intern(t).get());
  }
  EXPECT_GT(interner.stats().hits, 0u);
}

TEST(TypeInternerTest, BoundedCapacityEvictsInsteadOfGrowing) {
  InternerOptions opts;
  opts.num_shards = 1;
  opts.capacity = 8;
  TypeInterner interner(opts);
  ScopedInterning off(false);  // keep InferType from touching the global
  auto values = jsonsi::testing::RandomValues(13, 200);
  for (const ValueRef& v : values) interner.Intern(inference::InferType(*v));
  auto stats = interner.stats();
  EXPECT_LE(stats.size, 8u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.hits + stats.misses + stats.pass_through,
            values.size());
}

TEST(TypeInternerTest, OversizeTypesPassThrough) {
  InternerOptions opts;
  opts.max_type_size = 4;
  TypeInterner interner(opts);
  TypeRef small = Type::RecordUnchecked({{"a", Type::Num(), false}});
  std::vector<types::FieldType> wide;
  for (char c = 'a'; c <= 'z'; ++c) {
    wide.push_back({std::string(1, c), Type::Num(), false});
  }
  TypeRef big = Type::RecordUnchecked(std::move(wide));
  EXPECT_EQ(interner.Intern(small).get(), small.get());  // inserted
  EXPECT_EQ(interner.Intern(big).get(), big.get());      // passed through
  auto stats = interner.stats();
  EXPECT_EQ(stats.pass_through, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_TRUE(interner.Contains(small));
  EXPECT_FALSE(interner.Contains(big));
}

TEST(TypeInternerTest, SingletonsAreImmortalAndCanonical) {
  // Basic and eps singletons carry no control block (copies touch no
  // reference count) and are born canonical; other nodes become canonical
  // when an interner makes them resident, and stay so after eviction.
  for (const TypeRef& t :
       {Type::Null(), Type::Bool(), Type::Num(), Type::Str(), Type::Empty()}) {
    EXPECT_EQ(t.use_count(), 0);
    EXPECT_TRUE(t->canonical());
  }
  EXPECT_EQ(Type::Num().get(), Type::Basic(types::Kind::kNum).get());
  InternerOptions opts;
  opts.num_shards = 1;
  opts.capacity = 1;
  TypeInterner interner(opts);
  TypeRef a = Type::RecordUnchecked({{"a", Type::Num(), false}});
  TypeRef b = Type::RecordUnchecked({{"b", Type::Num(), false}});
  EXPECT_FALSE(a->canonical());
  EXPECT_EQ(interner.Intern(a).get(), a.get());
  EXPECT_TRUE(a->canonical());
  interner.Intern(b);  // evicts a
  EXPECT_FALSE(interner.Contains(a));
  EXPECT_TRUE(a->canonical());  // "was canonical once"
}

TEST(FuseCacheTest, CommutativelyNormalizedKeysShareOneEntry) {
  FuseCache cache;
  TypeRef a = Type::RecordUnchecked({{"a", Type::Num(), false}});
  TypeRef b = Type::RecordUnchecked({{"b", Type::Str(), false}});
  TypeRef fused = fusion::Fuse(a, b);
  EXPECT_EQ(cache.Lookup(a, b, 0), nullptr);
  cache.Insert(a, b, 0, fused);
  TypeRef forward = cache.Lookup(a, b, 0);
  TypeRef reversed = cache.Lookup(b, a, 0);  // Theorem 5.4 normalization
  ASSERT_NE(forward, nullptr);
  EXPECT_EQ(forward.get(), fused.get());
  ASSERT_NE(reversed, nullptr);
  EXPECT_EQ(reversed.get(), fused.get());
  // A different option fingerprint must not alias.
  EXPECT_EQ(cache.Lookup(a, b, 2), nullptr);
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(FuseCacheTest, BoundedCapacityEvicts) {
  FuseCacheOptions opts;
  opts.num_shards = 1;
  opts.capacity = 4;
  FuseCache cache(opts);
  std::vector<TypeRef> ts;
  for (char c = 'a'; c <= 'p'; ++c) {
    ts.push_back(
        Type::RecordUnchecked({{std::string(1, c), Type::Num(), false}}));
  }
  for (size_t i = 0; i + 1 < ts.size(); ++i) {
    cache.Insert(ts[i], ts[i + 1], 0, fusion::Fuse(ts[i], ts[i + 1]));
  }
  auto stats = cache.stats();
  EXPECT_LE(stats.size, 4u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(MemoizedFuseTest, CacheHitsAreStructurallyExact) {
  // Fusing the same logical pair twice: second round must hit the memo and
  // return the identical (pointer-equal) result node.
  ScopedInterning on(true);
  FuseCache::Global().Clear();
  auto values = jsonsi::testing::RandomValues(17, 20);
  std::vector<TypeRef> ts;
  for (const ValueRef& v : values) ts.push_back(inference::InferType(*v));
  const Fuser memo;
  std::vector<TypeRef> first, second;
  // Identical basic operands (LFuse(B, B) = B) are answered before the memo;
  // every other pair goes through it and hits exactly once at its root.
  uint64_t memo_pairs = 0;
  for (size_t i = 0; i + 1 < ts.size(); i += 2) {
    first.push_back(memo.Fuse(ts[i], ts[i + 1]));
    if (!(ts[i]->is_basic() && ts[i] == ts[i + 1])) ++memo_pairs;
  }
  ASSERT_GT(memo_pairs, 0u);
  uint64_t hits_before = FuseCache::Global().stats().hits;
  for (size_t i = 0; i + 1 < ts.size(); i += 2) {
    second.push_back(memo.Fuse(ts[i], ts[i + 1]));
  }
  EXPECT_EQ(FuseCache::Global().stats().hits, hits_before + memo_pairs);
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].get(), second[i].get());
  }
}

// ---------------------------------------------------------------------------
// TreeFuser::Finish() edge cases (the Fuse(eps, slot) warm-up is gone).
// ---------------------------------------------------------------------------

TEST(TreeFuserFinishTest, SingleElementFinishPerformsNoFusion) {
  // With the fold starting at the first live slot, a one-element stream
  // finishes without a single Fuse call — pinned via telemetry counters.
  ScopedInterning off(false);  // keep the dedup layer out of the way
  telemetry::MetricsRegistry::Global().ResetAll();
  telemetry::SetEnabled(true);
  TreeFuser fuser{PlainFuser()};
  TypeRef t = Type::RecordUnchecked({{"a", Type::Num(), false}});
  fuser.Add(t);
  TypeRef finished = fuser.Finish();
  telemetry::SetEnabled(false);
  auto snap = telemetry::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.CounterValue("fuse.calls"), 0u);
  EXPECT_EQ(snap.CounterValue("fuse.identity_hits"), 0u);
  EXPECT_EQ(finished.get(), t.get());
  telemetry::MetricsRegistry::Global().ResetAll();
}

TEST(TreeFuserFinishTest, EmptyAndOneElementEdgeCases) {
  TreeFuser empty;
  EXPECT_TRUE(empty.Finish()->is_empty());
  EXPECT_TRUE(empty.Finish()->is_empty());  // idempotent on empty

  TreeFuser one;
  TypeRef t = Type::RecordUnchecked({{"x", Type::Str(), false}});
  one.Add(t);
  EXPECT_TRUE(one.Finish()->Equals(*t));
  EXPECT_TRUE(one.Finish()->Equals(*t));  // idempotent
  EXPECT_EQ(one.count(), 1u);
}

TEST(TreeFuserFinishTest, FinishIdempotentUnderDedupAndResumable) {
  ScopedInterning on(true);
  TreeFuser fuser;
  auto values = jsonsi::testing::RandomValues(19, 30);
  for (size_t i = 0; i < 20; ++i) {
    fuser.Add(inference::InferType(*values[i % 10]));  // duplicates
  }
  TypeRef first = fuser.Finish();
  TypeRef again = fuser.Finish();
  ASSERT_TRUE(first->Equals(*again));
  // Resumable: more Adds after Finish still fold in.
  for (size_t i = 10; i < 30; ++i) {
    fuser.Add(inference::InferType(*values[i]));
  }
  TypeRef final_schema = fuser.Finish();
  // Reference: plain fold over the same multiset.
  ScopedInterning off(false);
  TreeFuser plain{PlainFuser()};
  for (size_t i = 0; i < 20; ++i) {
    plain.Add(inference::InferType(*values[i % 10]));
  }
  for (size_t i = 10; i < 30; ++i) {
    plain.Add(inference::InferType(*values[i]));
  }
  ASSERT_TRUE(final_schema->Equals(*plain.Finish()));
}

// ---------------------------------------------------------------------------
// Concurrency: one interner + one cache hammered from N threads on
// overlapping inputs. Runs under ASan/UBSan and TSan in CI.
// ---------------------------------------------------------------------------

TEST(InterningConcurrencyTest, ParallelInternAndFuseStayConsistent) {
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 60;

  // Shared pool of values; every thread infers and fuses overlapping pairs,
  // all through the global interner + cache.
  auto pool = jsonsi::testing::RandomValues(23, 40);

  // Reference results, computed single-threaded on the plain path.
  std::vector<TypeRef> plain_types;
  std::vector<TypeRef> plain_fused;
  {
    ScopedInterning off(false);
    const Fuser plain = PlainFuser();
    for (const ValueRef& v : pool) {
      plain_types.push_back(inference::InferType(*v));
    }
    for (size_t i = 0; i < pool.size(); ++i) {
      plain_fused.push_back(
          plain.Fuse(plain_types[i], plain_types[(i + 1) % pool.size()]));
    }
  }

  ScopedInterning on(true);
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      const Fuser memo;  // default: global interner + cache
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = tid; i < pool.size(); i += 1 + (tid % 3)) {
          TypeRef a = inference::InferType(*pool[i]);
          TypeRef b = inference::InferType(*pool[(i + 1) % pool.size()]);
          TypeRef fused = memo.Fuse(a, b);
          if (!a->Equals(*plain_types[i]) ||
              !fused->Equals(*plain_fused[i])) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);

  // The shared tables took real traffic and stayed bounded.
  auto istats = TypeInterner::Global().stats();
  EXPECT_GT(istats.hits, 0u);
  EXPECT_LE(istats.size, TypeInterner::Global().options().capacity);
  auto cstats = FuseCache::Global().stats();
  EXPECT_GT(cstats.hits, 0u);
  EXPECT_LE(cstats.size, FuseCache::Global().options().capacity);
}

TEST(InterningConcurrencyTest, DirectTypingAndTreeFuseMatchSerialFold) {
  // The Map/Reduce hot path as the chunk workers run it: 4 threads type
  // overlapping halves of a Twitter + Wikidata corpus with DirectInferType
  // and fold them with TreeFuser, all through the global tables, cleared
  // first. Canonical operands skip re-interning and the table counters
  // live in the shards; neither may change a result or lose a count.
  constexpr size_t kThreads = 4;
  std::vector<std::string> lines;
  for (auto [id, n] : {std::pair{datagen::DatasetId::kTwitter, size_t{240}},
                       std::pair{datagen::DatasetId::kWikidata, size_t{160}}}) {
    for (const ValueRef& v : datagen::MakeGenerator(id, 31)->GenerateMany(n)) {
      lines.push_back(json::ToJson(*v));
    }
  }
  // Worker w folds the half of the corpus starting at its quarter
  // (wrapping), so every line is typed by two workers.
  auto slice = [&lines](size_t w, size_t k) {
    return lines[(w * lines.size() / kThreads + k) % lines.size()];
  };
  const size_t half = lines.size() / 2;

  std::vector<TypeRef> serial(kThreads);
  TypeRef serial_reduced;
  {
    ScopedInterning off(false);
    TreeFuser all{PlainFuser()};
    for (size_t w = 0; w < kThreads; ++w) {
      TreeFuser fuser{PlainFuser()};
      for (size_t k = 0; k < half; ++k) {
        fuser.Add(inference::InferType(*json::Parse(slice(w, k)).value()));
      }
      serial[w] = fuser.Finish();
      all.Add(serial[w]);
    }
    serial_reduced = all.Finish();
  }

  ScopedInterning on(true);
  TypeInterner::Global().Clear();
  FuseCache::Global().Clear();
  telemetry::MetricsRegistry::Global().ResetAll();
  telemetry::SetEnabled(true);
  std::vector<TypeRef> partials(kThreads);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      TreeFuser fuser;
      for (size_t k = 0; k < half; ++k) {
        fuser.Add(inference::DirectInferType(slice(w, k)).value());
      }
      partials[w] = fuser.Finish();
    });
  }
  for (std::thread& t : threads) t.join();
  TreeFuser all;
  for (const TypeRef& p : partials) all.Add(p);
  TypeRef reduced = all.Finish();
  telemetry::SetEnabled(false);

  for (size_t w = 0; w < kThreads; ++w) {
    EXPECT_TRUE(TypeEquals(partials[w], serial[w])) << "worker " << w;
  }
  EXPECT_TRUE(TypeEquals(reduced, serial_reduced));

  // Every Intern call lands in exactly one of hits / misses / pass_through:
  // the per-shard counts sum to the call count the (sharded, atomic)
  // telemetry counters saw at the same call sites. Same for the memo.
  auto snap = telemetry::MetricsRegistry::Global().Snapshot();
  const auto is = TypeInterner::Global().stats();
  const uint64_t intern_calls = snap.CounterValue("intern.hits") +
                                snap.CounterValue("intern.misses") +
                                snap.CounterValue("intern.pass_through");
  EXPECT_GT(is.hits, 0u);
  EXPECT_EQ(is.hits + is.misses + is.pass_through, intern_calls);
  EXPECT_EQ(is.evictions, snap.CounterValue("intern.evictions"));
  const auto cs = FuseCache::Global().stats();
  EXPECT_GT(cs.hits, 0u);
  EXPECT_EQ(cs.hits + cs.misses, snap.CounterValue("fusecache.hits") +
                                     snap.CounterValue("fusecache.misses"));
  telemetry::MetricsRegistry::Global().ResetAll();

  // Identical basic operands: the singleton comes back and no table
  // counter moves.
  const TypeRef str = Type::Str();
  EXPECT_EQ(Fuser().Fuse(str, Type::Str()).get(), str.get());
  const auto is2 = TypeInterner::Global().stats();
  const auto cs2 = FuseCache::Global().stats();
  EXPECT_EQ(is2.hits + is2.misses + is2.pass_through,
            is.hits + is.misses + is.pass_through);
  EXPECT_EQ(cs2.hits + cs2.misses, cs.hits + cs.misses);
}

TEST(InterningConcurrencyTest, ShardCountersAreExactUnderContention) {
  // A known number of Intern calls from 4 threads on one small table
  // (evicting, with some inputs over the size cap): hits + misses +
  // pass_through equals the call count exactly.
  InternerOptions iopts;
  iopts.num_shards = 4;
  iopts.capacity = 4;
  iopts.max_type_size = 16;
  TypeInterner interner(iopts);
  auto pool = jsonsi::testing::RandomValues(37, 64);
  std::vector<TypeRef> ts;
  {
    ScopedInterning off(false);
    for (const ValueRef& v : pool) ts.push_back(inference::InferType(*v));
  }
  constexpr size_t kThreads = 4;
  constexpr size_t kCalls = 5000;
  std::vector<std::thread> threads;
  for (size_t tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      for (size_t i = 0; i < kCalls; ++i) {
        interner.Intern(ts[(i * (tid + 1)) % ts.size()]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto s = interner.stats();
  EXPECT_EQ(s.hits + s.misses + s.pass_through, kThreads * kCalls);
  EXPECT_GT(s.pass_through, 0u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.size, 4u);
}

TEST(InterningConcurrencyTest, DedicatedTablesUnderContention) {
  // Same hammering against fresh (non-global) instances with tiny capacity,
  // to drive concurrent eviction through both tables.
  InternerOptions iopts;
  iopts.num_shards = 2;
  iopts.capacity = 16;
  TypeInterner interner(iopts);
  FuseCacheOptions copts;
  copts.num_shards = 2;
  copts.capacity = 16;
  FuseCache cache(copts);

  auto pool = jsonsi::testing::RandomValues(29, 64);
  std::vector<TypeRef> ts;
  {
    ScopedInterning off(false);
    for (const ValueRef& v : pool) ts.push_back(inference::InferType(*v));
  }

  constexpr size_t kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      const Fuser plain = PlainFuser();
      for (size_t round = 0; round < 40; ++round) {
        for (size_t i = 0; i < ts.size(); ++i) {
          TypeRef a = interner.Intern(ts[(i + tid) % ts.size()]);
          TypeRef b = interner.Intern(ts[(i + tid + 1) % ts.size()]);
          TypeRef hit = cache.Lookup(a, b, 0);
          TypeRef fused = hit ? hit : plain.Fuse(a, b);
          if (!hit) cache.Insert(a, b, 0, fused);
          ASSERT_TRUE(fused->Equals(*plain.Fuse(a, b)));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(interner.stats().size, 16u);
  EXPECT_LE(cache.stats().size, 16u);
  EXPECT_GT(interner.stats().evictions + cache.stats().evictions, 0u);
}

}  // namespace
}  // namespace jsonsi
