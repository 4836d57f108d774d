// Code shared by the workloads: metric reporting, cache control and
// counters, the line probes, and the traced run's summary.

#include <algorithm>
#include <cmath>
#include <fstream>

#include "json/simd/kernel.h"
#include "json/simd/structural.h"
#include "json/tokenizer.h"
#include "workloads.h"

namespace perfbench {
namespace {

double Ratio(uint64_t num, uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

void AddMetric(RunResult* result, const std::string& name, double value,
               const std::string& unit, size_t samples,
               const std::string& note) {
  result->metrics.push_back({name, value, unit, samples, note});
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"io.next_ms", "ms"},
      {"io.batches", "count"},
      {"stage1.ns_per_byte", "ns/B"},
      {"tokenize.ns_per_byte", "ns/B"},
      {"tokenize.tokens", "count"},
      {"type.ns_per_record", "ns/record"},
      {"type.records", "count"},
      {"intern.lookups", "count"},
      {"intern.hit_ratio", "ratio"},
      {"intern.evictions", "count"},
      {"fuse.ms", "ms"},
      {"fusecache.hit_ratio", "ratio"},
      {"fusecache.evictions", "count"},
      {"fuse.distinct_types", "count"},
      {"distinct.ms", "ms"},
      {"split.ms", "ms"},
      {"split.chunks", "count"},
      {"policy.ms", "ms"},
      {"chunk.skew", "ratio"},
      {"reduce.ms", "ms"},
      {"parallel.efficiency", "ratio"},
      {"annotate.ns_per_record", "ns/record"},
      {"annotate.merge_ms", "ms"},
      {"session.ingest_ms", "ms"},
      {"session.snapshot_ms", "ms"},
      {"http.overhead_ms", "ms"},
      {"unattributed_share", "ratio"},
      {"trace.overhead_share", "ratio"},
      {"host.mem_probe_ms", "ms"},
      {"host.probe_parallelism", "ratio"},
      {"host.cpu_per_wall", "ratio"},
  };
  return kUnits;
}

void CheckLayerMetricsComplete(RunResult* result) {
  for (const auto& [name, unit] : LayerMetricUnits()) {
    bool present = false;
    for (const Metric& m : result->metrics) present |= m.name == name;
    if (present) continue;
    result->Fail("per-layer metric " + name + " was not measured");
    AddMetric(result, name, 0.0, unit);
  }
}

void ReportEndToEnd(const EndToEnd& e, RunResult* result) {
  AddMetric(result, "setup_s", Median(e.setup_s), "s", e.setup_s.size());
  AddMetric(result, "mb_per_s", e.mb_per_s, "MB/s", e.op.samples);
  AddMetric(result, "op_p50_ms", e.op.p50, "ms", e.op.samples);
  AddMetric(result, "op_p10_ms", e.op.p10, "ms", e.op.samples);
  AddMetric(result, "op_tail_ms", e.op.tail, "ms", e.op.samples,
            "p" + JsonNumber(e.op.tail_percentile));
  AddMetric(result, "cpu_ms_per_mb", e.cpu_ms_per_mb, "ms/MB", e.cpu_samples);
  AddMetric(result, "peak_rss_mb", e.peak_rss_mb, "MB");
  AddMetric(result, "ok_ratio", 1.0 - Ratio(result->failed, result->attempted),
            "ratio", result->attempted);
  AddMetric(result, "read_p50_ms", e.read.p50, "ms", e.read.samples);
  AddMetric(result, "read_tail_ms", e.read.tail, "ms", e.read.samples,
            "p" + JsonNumber(e.read.tail_percentile));
}

void ClearCaches() {
  jsonsi::types::TypeInterner::Global().Clear();
  jsonsi::fusion::FuseCache::Global().Clear();
}

CacheCounters CacheCounters::Now() {
  return {jsonsi::types::TypeInterner::Global().stats(),
          jsonsi::fusion::FuseCache::Global().stats()};
}

void AddCacheDeltas(const CacheCounters& a, const CacheCounters& b,
                    std::map<std::string, uint64_t>* counts,
                    std::map<std::string, double>* layer) {
  const uint64_t ihits = b.intern.hits - a.intern.hits;
  const uint64_t imisses = b.intern.misses - a.intern.misses;
  const uint64_t ievict = b.intern.evictions - a.intern.evictions;
  const uint64_t fhits = b.fuse.hits - a.fuse.hits;
  const uint64_t fmisses = b.fuse.misses - a.fuse.misses;
  const uint64_t fevict = b.fuse.evictions - a.fuse.evictions;
  (*counts)["intern.hits"] = ihits;
  (*counts)["intern.misses"] = imisses;
  (*counts)["intern.evictions"] = ievict;
  (*counts)["intern.pass_through"] =
      b.intern.pass_through - a.intern.pass_through;
  (*counts)["fusecache.hits"] = fhits;
  (*counts)["fusecache.misses"] = fmisses;
  (*counts)["fusecache.evictions"] = fevict;
  if (!layer) return;
  (*layer)["intern.lookups"] = static_cast<double>(ihits + imisses);
  (*layer)["intern.hit_ratio"] = Ratio(ihits, ihits + imisses);
  (*layer)["intern.evictions"] = static_cast<double>(ievict);
  (*layer)["fusecache.hit_ratio"] = Ratio(fhits, fhits + fmisses);
  (*layer)["fusecache.evictions"] = static_cast<double>(fevict);
}

namespace {

template <typename Fn>
void ForEachLine(std::string_view text, const jsonsi::json::IngestOptions& in,
                 Fn&& fn) {
  jsonsi::json::LineFn line_fn =
      [&fn](std::string_view line) -> jsonsi::Result<bool> {
    fn(line);
    return true;
  };
  (void)jsonsi::json::IngestJsonLines(text, line_fn, in);
}

}  // namespace

void FrameLines(std::string_view text, const jsonsi::json::IngestOptions& in) {
  ForEachLine(text, in, [](std::string_view) {});
}

void IndexLines(std::string_view text, const jsonsi::json::IngestOptions& in) {
  namespace simd = jsonsi::json::simd;
  simd::StructuralIndex index;
  // Only lines the tokenizer would index (simd::ShouldIndex).
  ForEachLine(text, in, [&](std::string_view line) {
    if (simd::ShouldIndex(line.size())) index.Build(line);
  });
}

uint64_t TokenizeLines(std::string_view text,
                       const jsonsi::json::IngestOptions& in) {
  uint64_t tokens = 0;
  ForEachLine(text, in, [&](std::string_view line) {
    jsonsi::json::Tokenizer tokenizer(line);
    jsonsi::json::Token token;
    while (tokenizer.Next(&token).ok() &&
           token.kind != jsonsi::json::TokenKind::kEnd) {
      ++tokens;
    }
  });
  return tokens;
}

void CheckReplay(const ReplayedOp& replay, CountChecker* counts,
                 RunResult* result) {
  if (!counts->Check(replay.counts)) {
    result->Fail("work counts differ between replays: " + counts->mismatch());
  }
  double sum = 0;
  for (const auto& [layer, ms] : replay.self_ms) sum += ms;
  if (std::abs(sum - replay.op_ms) > 1e-6 * std::max(1.0, replay.op_ms)) {
    result->Fail("layer self times sum to " + std::to_string(sum) +
                 " ms, the op's wall time is " + std::to_string(replay.op_ms) +
                 " ms");
  }
}

void CheckNesting(const std::vector<ReplayedOp>& replays, RunResult* result) {
  if (replays.empty()) return;
  const std::vector<ReplayedOp::Chain>& shape = replays[0].nesting;
  for (size_t c = 0; c < shape.size(); ++c) {
    std::vector<double> medians;
    for (size_t i = 0; i < shape[c].size(); ++i) {
      std::vector<double> values;
      for (const ReplayedOp& r : replays) {
        if (r.nesting.size() == shape.size() &&
            r.nesting[c].size() == shape[c].size()) {
          values.push_back(r.nesting[c][i].second);
        }
      }
      medians.push_back(Median(values));
    }
    std::string line;
    for (size_t i = 0; i < medians.size(); ++i) {
      line += (i ? " <= " : "") + shape[c][i].first + " " +
              JsonNumber(medians[i]);
      if (i + 1 < medians.size() &&
          medians[i] >
              medians[i + 1] * (1.0 + kNestingTolerance) + kNestingSlackMs) {
        result->Fail(shape[c][i].first + " takes " +
                     std::to_string(medians[i]) + " ms, more than " +
                     shape[c][i + 1].first + " (" +
                     std::to_string(medians[i + 1]) +
                     " ms; medians over the replays): the probes do not "
                     "nest");
      }
    }
    result->nesting.push_back(line);
  }
}

void ReportReplays(const std::vector<ReplayedOp>& replays,
                   double untraced_p50_ms, const Tracer& tracer,
                   const std::string& trace_path, RunResult* result) {
  std::ofstream(trace_path, std::ios::trunc) << tracer.ToChromeTrace();
  if (replays.empty()) return;
  CheckNesting(replays, result);
  for (const auto& [name, unit] : LayerMetricUnits()) {
    std::vector<double> values;
    for (const ReplayedOp& r : replays) {
      auto it = r.layer.find(name);
      if (it != r.layer.end()) values.push_back(it->second);
    }
    if (!values.empty()) {
      AddMetric(result, name, Median(values), unit, values.size());
    }
  }
  std::vector<double> replay_ms;
  for (const ReplayedOp& r : replays) replay_ms.push_back(r.op_ms);
  const double traced = Median(replay_ms);
  AddMetric(result, "trace.overhead_share",
            (traced - untraced_p50_ms) / untraced_p50_ms, "ratio",
            replays.size());
  const ReplayedOp* median = &replays[0];
  for (const ReplayedOp& r : replays) {
    if (std::abs(r.op_ms - traced) < std::abs(median->op_ms - traced)) {
      median = &r;
    }
  }
  result->self_ms = median->self_ms;
  result->self_ms.emplace_back("= op wall (traced)", median->op_ms);
  result->self_ms.emplace_back("untraced op p50", untraced_p50_ms);
}

}  // namespace perfbench
