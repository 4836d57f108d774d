// Micro-benchmarks (google-benchmark) for the DOM-free direct inference
// kernel: per-record DirectInferType vs Parse+InferType over the four
// datagen corpora (the ISSUE's >= 1.5x records/s acceptance gate), the
// tokenizer-only validation floor, and the end-to-end A/B of
// InferFromJsonLines against its DOM oracle (ParseJsonLines, then
// InferFromValues), serial and chunk-parallel. Every benchmark
// reports MB/s via SetBytesProcessed and records/s via SetItemsProcessed
// so the two paths read off one table.
//
// The SIMD A/B rows (Tokenize/kernel/*, Infer/direct/kernel/*) run the same
// loops with the structural-index kernel pinned, one benchmark per ISA the
// host actually has; the scalar row is the SWAR floor the vector speedup is
// measured against. Corpora are page-warmed before timing so the first row
// to touch fresh memory does not absorb the soft faults for everyone else.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/schema_inferencer.h"
#include "inference/direct_infer.h"
#include "inference/infer.h"
#include "json/jsonl.h"
#include "json/parser.h"
#include "json/serializer.h"
#include "json/simd/kernel.h"
#include "json/tokenizer.h"

namespace {

using namespace jsonsi;

constexpr size_t kRecordsPerDataset = 512;

// Corpus indices 0..3 are the datagen datasets; 4 is a synthetic
// wide-strings corpus (long plain string fields, the structural scan's
// best case) used only by the per-kernel rows.
constexpr int kNumCorpora = 5;
constexpr int kWideStrings = 4;

// One serialized corpus per dataset, generated once per process.
struct Corpus {
  std::vector<std::string> lines;
  std::string jsonl;  // the same lines joined with '\n'
  int64_t bytes = 0;
};

const Corpus& GetCorpus(int index) {
  static Corpus corpora[kNumCorpora];
  Corpus& c = corpora[index];
  if (c.lines.empty()) {
    std::vector<json::ValueRef> values;
    if (index == kWideStrings) {
      // ~1 KiB records, four ~200-byte escape-free text fields: string
      // scanning dominates, so the rows isolate the bulk string-skip path.
      for (size_t r = 0; r < kRecordsPerDataset; ++r) {
        std::string line = "{";
        for (int f = 0; f < 4; ++f) {
          line += "\"field";
          line += static_cast<char>('0' + f);
          line += "\":\"";
          line.append(200 + ((r + static_cast<size_t>(f) * 53) % 48),
                      static_cast<char>('a' + (r + static_cast<size_t>(f)) %
                                                  26));
          line += f == 3 ? "\"" : "\",";
        }
        line += ",\"id\":";
        line += std::to_string(r);
        line += "}";
        c.lines.push_back(std::move(line));
      }
    } else {
      values = datagen::MakeGenerator(static_cast<datagen::DatasetId>(index),
                                      bench::BenchSeed())
                   ->GenerateMany(kRecordsPerDataset);
      for (const auto& v : values) c.lines.push_back(json::ToJson(v));
    }
    for (const auto& line : c.lines) {
      c.bytes += static_cast<int64_t>(line.size());
      c.jsonl += line;
      c.jsonl += '\n';
    }
    benchmark::DoNotOptimize(bench::WarmPages(c.jsonl));
    for (const auto& line : c.lines) {
      benchmark::DoNotOptimize(bench::WarmPages(line));
    }
  }
  return c;
}

int Dataset(const benchmark::State& state) {
  return static_cast<int>(state.range(0));
}

// Publishes one per-kernel row's throughput as a gauge so the
// BENCH_direct_infer.json accounting carries the SIMD A/B table itself
// (not just byte counters) — e.g. bench.simd.tokenize.avx2.dataset4_mbps.
// Gauges are set-last-wins, so re-runs overwrite rather than accumulate.
void PublishKernelRow(const char* row, json::simd::Kernel k, int dataset,
                      int64_t bytes, double seconds) {
  if (!telemetry::Enabled() || seconds <= 0) return;
  std::string name = std::string("bench.simd.") + row + "." +
                     json::simd::KernelName(k) + ".dataset" +
                     std::to_string(dataset) + "_mbps";
  telemetry::MetricsRegistry::Global().GetGauge(name).Set(
      static_cast<int64_t>(static_cast<double>(bytes) / seconds / 1e6));
}

// Baseline: the composed pipeline — materialize a json::Value, then type it.
void BM_DomInfer(benchmark::State& state) {
  const Corpus& corpus = GetCorpus(Dataset(state));
  size_t i = 0;
  for (auto _ : state) {
    auto value = json::Parse(corpus.lines[i++ % corpus.lines.size()]);
    auto type = inference::InferType(*value.value());
    benchmark::DoNotOptimize(type);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * corpus.bytes /
                          static_cast<int64_t>(corpus.lines.size()));
}
BENCHMARK(BM_DomInfer)->DenseRange(0, 3)->Name("Infer/dom/dataset");

// The kernel under test: one fused pass, no DOM.
void BM_DirectInfer(benchmark::State& state) {
  const Corpus& corpus = GetCorpus(Dataset(state));
  size_t i = 0;
  for (auto _ : state) {
    auto type =
        inference::DirectInferType(corpus.lines[i++ % corpus.lines.size()]);
    benchmark::DoNotOptimize(type);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * corpus.bytes /
                          static_cast<int64_t>(corpus.lines.size()));
}
BENCHMARK(BM_DirectInfer)->DenseRange(0, 3)->Name("Infer/direct/dataset");

// Floor: the raw token stream with no type construction at all — how much
// of the direct path's cost is lexing vs building/interning types.
void BM_TokenizeOnly(benchmark::State& state) {
  const Corpus& corpus = GetCorpus(Dataset(state));
  size_t i = 0;
  for (auto _ : state) {
    json::Tokenizer tok(corpus.lines[i++ % corpus.lines.size()]);
    json::Token t;
    do {
      Status st = tok.Next(&t);
      benchmark::DoNotOptimize(st);
    } while (t.kind != json::TokenKind::kEnd);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * corpus.bytes /
                          static_cast<int64_t>(corpus.lines.size()));
}
BENCHMARK(BM_TokenizeOnly)->DenseRange(0, 3)->Name("Tokenize/dataset");

// Per-kernel A/B rows: the tokenize-only and direct-infer loops with the
// structural-index kernel pinned. The scalar row never builds an index
// (the SWAR cursor loops ARE the scalar kernel), so it is the floor the
// ISSUE's >= 2x tokenize gate measures the vector ISAs against. Each row
// labels itself with the kernel name and exports the kernel enum as a
// counter, so BENCH_direct_infer.json rows stay comparable across hosts
// with different ISAs.
void RunTokenizeKernel(benchmark::State& state, json::simd::Kernel k) {
  const Corpus& corpus = GetCorpus(Dataset(state));
  const json::simd::Kernel saved = json::simd::ActiveKernel();
  json::simd::SetKernel(k);
  size_t i = 0;
  Stopwatch watch;
  for (auto _ : state) {
    json::Tokenizer tok(corpus.lines[i++ % corpus.lines.size()]);
    json::Token t;
    do {
      Status st = tok.Next(&t);
      benchmark::DoNotOptimize(st);
    } while (t.kind != json::TokenKind::kEnd);
  }
  const double seconds = watch.ElapsedSeconds();
  json::simd::SetKernel(saved);
  state.SetItemsProcessed(state.iterations());
  const int64_t bytes = state.iterations() * corpus.bytes /
                        static_cast<int64_t>(corpus.lines.size());
  state.SetBytesProcessed(bytes);
  state.SetLabel(json::simd::KernelName(k));
  state.counters["kernel"] = static_cast<double>(static_cast<int>(k));
  PublishKernelRow("tokenize", k, Dataset(state), bytes, seconds);
}

void RunDirectInferKernel(benchmark::State& state, json::simd::Kernel k) {
  const Corpus& corpus = GetCorpus(Dataset(state));
  const json::simd::Kernel saved = json::simd::ActiveKernel();
  json::simd::SetKernel(k);
  size_t i = 0;
  Stopwatch watch;
  for (auto _ : state) {
    auto type =
        inference::DirectInferType(corpus.lines[i++ % corpus.lines.size()]);
    benchmark::DoNotOptimize(type);
  }
  const double seconds = watch.ElapsedSeconds();
  json::simd::SetKernel(saved);
  state.SetItemsProcessed(state.iterations());
  const int64_t bytes = state.iterations() * corpus.bytes /
                        static_cast<int64_t>(corpus.lines.size());
  state.SetBytesProcessed(bytes);
  state.SetLabel(json::simd::KernelName(k));
  state.counters["kernel"] = static_cast<double>(static_cast<int>(k));
  PublishKernelRow("infer_direct", k, Dataset(state), bytes, seconds);
}

// Stage 1 in isolation: structural-index build throughput over the whole
// corpus buffer, no tokenization. This is the raw classify+carry speed the
// per-ISA table in docs/performance.md quotes.
void RunIndexBuildKernel(benchmark::State& state, json::simd::Kernel k) {
  const Corpus& corpus = GetCorpus(Dataset(state));
  json::simd::StructuralIndex index;
  Stopwatch watch;
  for (auto _ : state) {
    index.Build(corpus.jsonl, k);
    benchmark::DoNotOptimize(index.StructuralCount());
  }
  const double seconds = watch.ElapsedSeconds();
  const int64_t bytes =
      state.iterations() * static_cast<int64_t>(corpus.jsonl.size());
  state.SetBytesProcessed(bytes);
  state.SetLabel(json::simd::KernelName(k));
  state.counters["kernel"] = static_cast<double>(static_cast<int>(k));
  PublishKernelRow("index_build", k, Dataset(state), bytes, seconds);
}

void RegisterKernelBenchmarks() {
  for (json::simd::Kernel k : json::simd::AvailableKernels()) {
    const std::string name = json::simd::KernelName(k);
    benchmark::RegisterBenchmark(
        ("Tokenize/kernel:" + name + "/dataset").c_str(),
        [k](benchmark::State& state) { RunTokenizeKernel(state, k); })
        ->DenseRange(0, kNumCorpora - 1);
    benchmark::RegisterBenchmark(
        ("Infer/direct/kernel:" + name + "/dataset").c_str(),
        [k](benchmark::State& state) { RunDirectInferKernel(state, k); })
        ->DenseRange(0, kNumCorpora - 1);
    benchmark::RegisterBenchmark(
        ("IndexBuild/kernel:" + name + "/dataset").c_str(),
        [k](benchmark::State& state) { RunIndexBuildKernel(state, k); })
        ->DenseRange(0, kNumCorpora - 1);
  }
}

// End-to-end A/B: the whole InferFromJsonLines pipeline vs the DOM oracle
// pipeline (json::ParseJsonLines, then InferFromValues) on the same options.
// range(0) = dataset, range(1) = threads (1 = serial path).
void BM_EndToEnd(benchmark::State& state, bool direct) {
  const Corpus& corpus = GetCorpus(Dataset(state));
  core::InferenceOptions options;
  options.num_threads = static_cast<size_t>(state.range(1));
  options.parallel_ingest_min_bytes = 0;
  core::SchemaInferencer inferencer(options);
  for (auto _ : state) {
    if (direct) {
      auto schema = inferencer.InferFromJsonLines(corpus.jsonl);
      benchmark::DoNotOptimize(schema);
    } else {
      auto values = json::ParseJsonLines(corpus.jsonl, options.ingest);
      auto schema = inferencer.TryInferFromValues(values.value());
      benchmark::DoNotOptimize(schema);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.lines.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.jsonl.size()));
}
void BM_EndToEndDirect(benchmark::State& state) { BM_EndToEnd(state, true); }
void BM_EndToEndDom(benchmark::State& state) { BM_EndToEnd(state, false); }
BENCHMARK(BM_EndToEndDirect)
    ->ArgsProduct({{0, 1, 2, 3}, {1, 4}})
    ->Name("E2E/direct/dataset/threads");
BENCHMARK(BM_EndToEndDom)
    ->ArgsProduct({{0, 1, 2, 3}, {1, 4}})
    ->Name("E2E/dom/dataset/threads");

}  // namespace

int main(int argc, char** argv) {
  // BenchJsonScope turns telemetry on under JSI_BENCH_JSON and flushes the
  // registry (including the infer.direct.* counters the benchmarks drive)
  // to BENCH_direct_infer.json on exit.
  jsonsi::bench::BenchJsonScope scope("direct_infer");
  jsonsi::bench::ApplyQuickArgs(&argc, &argv);  // JSI_BENCH_QUICK smoke mode
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RegisterKernelBenchmarks();  // one Tokenize + Infer row per available ISA
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
