// Micro-benchmarks (google-benchmark) for hash-consed interning + memoized
// fusion: the intern hit path itself, pairwise Fuse and 1000-element folds
// with the optimization on vs off (the `--no-intern` baseline), and the
// dedup-layer behaviour on duplicate-heavy vs distinct-heavy (Wikidata)
// streams. Each benchmark reports the intern-table / fuse-cache hit rates
// and occupancy observed during its timed region via state.counters; the
// custom main additionally publishes final table stats through telemetry so
// JSI_BENCH_JSON=<dir> emits BENCH_interning.json.
//
// After the google-benchmark rows, main prints one parallel-scaling row:
// typing (DirectInferType) + folding (TreeFuser) a Wikidata corpus, one
// quarter on each of 4 threads against all four quarters on one thread,
// as the ratio of per-quarter wall times. 1.00 means the workers scale like
// shared-nothing partials; above that is cross-core traffic on shared type
// nodes and tables (or a busy host). It is exported as the gauge
// bench.interning.parallel_ratio in percent (100 = 1.00), recorded and not
// gated.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "datagen/generator.h"
#include "fusion/fuse.h"
#include "fusion/fuse_cache.h"
#include "fusion/tree_fuser.h"
#include "inference/direct_infer.h"
#include "inference/infer.h"
#include "support/timer.h"
#include "telemetry/metrics.h"
#include "types/interner.h"

namespace {

using namespace jsonsi;
using types::ScopedInterning;
using types::TypeInterner;
using fusion::FuseCache;

std::vector<json::ValueRef> SampleValues(datagen::DatasetId id, size_t n) {
  return datagen::MakeGenerator(id, 42)->GenerateMany(n);
}

std::vector<types::TypeRef> SampleTypes(datagen::DatasetId id, size_t n) {
  ScopedInterning off(false);  // fresh, unshared trees as the baseline input
  std::vector<types::TypeRef> ts;
  for (const auto& v : SampleValues(id, n)) {
    ts.push_back(inference::InferType(*v));
  }
  return ts;
}

fusion::Fuser PlainFuser() {
  fusion::FuseOptions opts;
  opts.intern = false;
  opts.memoize = false;
  opts.dedup = false;
  return fusion::Fuser(opts);
}

void ReportTableCounters(benchmark::State& state,
                         const types::InternerStats& i0,
                         const fusion::FuseCacheStats& c0) {
  auto i1 = TypeInterner::Global().stats();
  auto c1 = FuseCache::Global().stats();
  const double ih = static_cast<double>(i1.hits - i0.hits);
  const double im = static_cast<double>(i1.misses - i0.misses);
  const double ch = static_cast<double>(c1.hits - c0.hits);
  const double cm = static_cast<double>(c1.misses - c0.misses);
  state.counters["intern_hit_rate"] = ih + im > 0 ? ih / (ih + im) : 0.0;
  state.counters["fusecache_hit_rate"] = ch + cm > 0 ? ch / (ch + cm) : 0.0;
  state.counters["intern_live"] = static_cast<double>(i1.size);
  state.counters["fusecache_live"] = static_cast<double>(c1.size);
}

// The intern operation itself, steady state: every call is a table hit
// returning the canonical node.
void BM_InternHit(benchmark::State& state) {
  auto ts = SampleTypes(static_cast<datagen::DatasetId>(state.range(0)), 64);
  TypeInterner& interner = TypeInterner::Global();
  for (auto& t : ts) t = interner.Intern(std::move(t));  // warm the table
  auto i0 = interner.stats();
  size_t i = 0;
  for (auto _ : state) {
    auto t = interner.Intern(ts[i++ % ts.size()]);
    benchmark::DoNotOptimize(t);
  }
  auto i1 = interner.stats();
  const double hits = static_cast<double>(i1.hits - i0.hits);
  const double total =
      static_cast<double>((i1.hits + i1.misses) - (i0.hits + i0.misses));
  state.counters["intern_hit_rate"] = total > 0 ? hits / total : 0.0;
}
BENCHMARK(BM_InternHit)->DenseRange(0, 3)->Name("InternHit/dataset");

// Pairwise fusion over a recurring working set: plain recomputes the
// Figure 5/6 merge every time, memoized hits the fuse cache.
void BM_FusePairPlain(benchmark::State& state) {
  ScopedInterning off(false);
  auto ts = SampleTypes(static_cast<datagen::DatasetId>(state.range(0)), 64);
  const fusion::Fuser plain = PlainFuser();
  size_t i = 0;
  for (auto _ : state) {
    auto f = plain.Fuse(ts[i % ts.size()], ts[(i + 1) % ts.size()]);
    benchmark::DoNotOptimize(f);
    ++i;
  }
}
BENCHMARK(BM_FusePairPlain)->DenseRange(0, 3)->Name("FusePair/plain/dataset");

void BM_FusePairMemoized(benchmark::State& state) {
  ScopedInterning on(true);
  auto ts = SampleTypes(static_cast<datagen::DatasetId>(state.range(0)), 64);
  const fusion::Fuser memo;  // defaults: intern + memoize
  auto i0 = TypeInterner::Global().stats();
  auto c0 = FuseCache::Global().stats();
  size_t i = 0;
  for (auto _ : state) {
    auto f = memo.Fuse(ts[i % ts.size()], ts[(i + 1) % ts.size()]);
    benchmark::DoNotOptimize(f);
    ++i;
  }
  ReportTableCounters(state, i0, c0);
}
BENCHMARK(BM_FusePairMemoized)
    ->DenseRange(0, 3)
    ->Name("FusePair/memoized/dataset");

// The reduce phase end-to-end: 1000 records folded through TreeFuser with
// the optimization stack off (the --no-intern baseline) vs on (dedup +
// interning + memo). Wikidata (dataset 2) is the adversarial shape: nearly
// every record brings a fresh type, so dedup buys little and the bench
// shows the bounded-table overheads instead.
void BM_Fold1000NoIntern(benchmark::State& state) {
  ScopedInterning off(false);
  auto ts = SampleTypes(static_cast<datagen::DatasetId>(state.range(0)), 1000);
  for (auto _ : state) {
    fusion::TreeFuser fuser{PlainFuser()};
    for (const auto& t : ts) fuser.Add(t);
    auto f = fuser.Finish();
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_Fold1000NoIntern)
    ->DenseRange(0, 3)
    ->Name("Fold1000/no-intern/dataset")
    ->Unit(benchmark::kMillisecond);

void BM_Fold1000Interned(benchmark::State& state) {
  ScopedInterning on(true);
  auto ts = SampleTypes(static_cast<datagen::DatasetId>(state.range(0)), 1000);
  auto i0 = TypeInterner::Global().stats();
  auto c0 = FuseCache::Global().stats();
  double dedup_distinct = 0;
  for (auto _ : state) {
    fusion::TreeFuser fuser;  // defaults: dedup + intern + memoize
    for (const auto& t : ts) fuser.Add(t);
    dedup_distinct = static_cast<double>(fuser.pending_distinct());
    auto f = fuser.Finish();
    benchmark::DoNotOptimize(f);
  }
  ReportTableCounters(state, i0, c0);
  state.counters["dedup_distinct"] = dedup_distinct;
}
BENCHMARK(BM_Fold1000Interned)
    ->DenseRange(0, 3)
    ->Name("Fold1000/interned/dataset")
    ->Unit(benchmark::kMillisecond);

// Inference with bottom-up interning on vs off: measures the intern overhead
// paid in the Map phase to buy sharing in the Reduce phase.
void BM_InferPlain(benchmark::State& state) {
  ScopedInterning off(false);
  auto values =
      SampleValues(static_cast<datagen::DatasetId>(state.range(0)), 64);
  size_t i = 0;
  for (auto _ : state) {
    auto t = inference::InferType(*values[i++ % values.size()]);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_InferPlain)->DenseRange(0, 3)->Name("Infer/no-intern/dataset");

void BM_InferInterned(benchmark::State& state) {
  ScopedInterning on(true);
  auto values =
      SampleValues(static_cast<datagen::DatasetId>(state.range(0)), 64);
  auto i0 = TypeInterner::Global().stats();
  auto c0 = FuseCache::Global().stats();
  size_t i = 0;
  for (auto _ : state) {
    auto t = inference::InferType(*values[i++ % values.size()]);
    benchmark::DoNotOptimize(t);
  }
  ReportTableCounters(state, i0, c0);
}
BENCHMARK(BM_InferInterned)->DenseRange(0, 3)->Name("Infer/interned/dataset");

// Cold-table wall time of typing + folding `quarters` on `threads` threads
// (thread w takes quarters w, w + threads, ...).
double TypeFoldSeconds(const std::vector<std::vector<std::string>>& quarters,
                       size_t threads) {
  TypeInterner::Global().Clear();
  FuseCache::Global().Clear();
  Stopwatch watch;
  std::vector<std::thread> workers;
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&quarters, threads, w] {
      for (size_t q = w; q < quarters.size(); q += threads) {
        fusion::TreeFuser fuser;
        for (const std::string& line : quarters[q]) {
          fuser.Add(inference::DirectInferType(line).value());
        }
        benchmark::DoNotOptimize(fuser.Finish());
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return watch.ElapsedSeconds();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void ReportParallelRatio() {
  constexpr size_t kThreads = 4;
  const bool quick = bench::BenchQuick();
  const size_t records = quick ? 400 : 2000;
  const size_t reps = quick ? 3 : 9;
  std::vector<std::vector<std::string>> quarters(kThreads);
  auto values = SampleValues(datagen::DatasetId::kWikidata, records);
  for (size_t i = 0; i < values.size(); ++i) {
    quarters[i * kThreads / values.size()].push_back(json::ToJson(*values[i]));
  }
  ScopedInterning on(true);
  std::vector<double> one, four;
  for (size_t r = 0; r < reps; ++r) {  // interleaved against host drift
    one.push_back(TypeFoldSeconds(quarters, 1) / kThreads);
    four.push_back(TypeFoldSeconds(quarters, kThreads));
  }
  const double ratio = Median(four) / Median(one);
  std::printf(
      "parallel[wikidata x%zu, type+fold, median of %zu]: 1 thread %.2f ms "
      "per quarter, %zu threads %.2f ms, ratio %.2f (1.00 = "
      "shared-nothing)\n",
      records, reps, Median(one) * 1e3, kThreads, Median(four) * 1e3, ratio);
  telemetry::MetricsRegistry::Global()
      .GetGauge("bench.interning.parallel_ratio")
      .Set(std::llround(ratio * 100));
}

}  // namespace

int main(int argc, char** argv) {
  // BenchJsonScope turns telemetry on under JSI_BENCH_JSON and flushes the
  // registry to BENCH_interning.json on exit; the final-table gauges are
  // published just before that flush.
  jsonsi::bench::BenchJsonScope scope("interning");
  jsonsi::bench::ApplyQuickArgs(&argc, &argv);  // JSI_BENCH_QUICK smoke mode
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  jsonsi::bench::PublishCacheTelemetry();
  jsonsi::bench::PrintCacheStats();
  ReportParallelRatio();
  return 0;
}
