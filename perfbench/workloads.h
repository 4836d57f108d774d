// The benchmark's workloads (see perfbench/README.md for why each exists).
//
// Every workload runs in one benchmark process: set-up generates the corpus
// from datagen with the run's seed and computes the reference schema, then
// ops run in-process through the library's public entry points until the
// measuring time is used up. An untraced run reports the end-to-end metrics;
// a traced run (--trace 1) replays ops as a chain of layer calls and reports
// the per-layer metrics.

#ifndef JSONSI_PERFBENCH_WORKLOADS_H_
#define JSONSI_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fusion/fuse_cache.h"
#include "json/jsonl.h"
#include "measure.h"
#include "types/interner.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the generated corpus files and the trace output.
  std::string work_dir;
  /// Self-test levers: a deliberately wrong reference schema, caches kept
  /// warm between ops, and a smaller corpus (0 = the workload's size).
  bool corrupt_reference = false;
  bool keep_caches = false;
  uint64_t records = 0;
  /// Self-test lever: swaps the stage-1 and tokenizer probe times, so the
  /// probe times stop nesting (CheckNesting must fail).
  bool misorder_probes = false;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when an op failed, a work count did not repeat, or the traced
  /// layer times did not sum to the op's wall time.
  bool correct = true;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Work counts of one op; identical for every op of a run and across
  /// runs with the same seed.
  std::map<std::string, uint64_t> counts;
  /// Traced run only: layer self times of the median replayed op, and the
  /// nesting chains' medians.
  std::vector<std::pair<std::string, double>> self_ms;
  std::vector<std::string> nesting;

  void Fail(const std::string& error) {
    correct = false;
    if (errors.size() < 8) errors.push_back(error);
  }
};

/// Names of all workloads, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

/// Runs `config.workload`: set-up, ops for `config.seconds`, checks.
RunResult RunBatchWorkload(const RunConfig& config, HostFingerprint* host);

/// Appends `value` under `name`.
void AddMetric(RunResult* result, const std::string& name, double value,
               const std::string& unit, size_t samples = 0,
               const std::string& note = "");

/// Every per-layer metric with its unit, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

/// Fails `result` for every per-layer metric it does not carry (and reports
/// it as 0, so the result line still lists every metric).
void CheckLayerMetricsComplete(RunResult* result);

/// Reports the end-to-end metrics of an untraced run.
struct EndToEnd {
  std::vector<double> setup_s;
  double mb_per_s = 0;
  LatencySummary op;
  double cpu_ms_per_mb = 0;
  size_t cpu_samples = 0;
  double peak_rss_mb = 0;
  LatencySummary read;
};
void ReportEndToEnd(const EndToEnd& e2e, RunResult* result);

// -- Calls into the library shared by the workloads (common.cc) --

/// Empties the process-global TypeInterner and FuseCache: the cold-cache
/// state of a fresh `jsi infer`.
void ClearCaches();

/// Cache counters, read before and after an op.
struct CacheCounters {
  jsonsi::types::InternerStats intern;
  jsonsi::fusion::FuseCacheStats fuse;
  static CacheCounters Now();
};

/// Adds the counter deltas to `counts` and the cache metrics (lookups, hit
/// ratios, evictions) to `layer`.
void AddCacheDeltas(const CacheCounters& before, const CacheCounters& after,
                    std::map<std::string, uint64_t>* counts,
                    std::map<std::string, double>* layer);

/// Probes that split the per-record typing time: each walks the lines of
/// `text` with the reader's line framing and does one layer's work per
/// line, cumulatively (framing; + the stage-1 index; + the tokenizer loop,
/// which builds its own index and returns the token count).
void FrameLines(std::string_view text, const jsonsi::json::IngestOptions& in);
void IndexLines(std::string_view text, const jsonsi::json::IngestOptions& in);
uint64_t TokenizeLines(std::string_view text,
                       const jsonsi::json::IngestOptions& in);

/// One replayed op of a traced run.
struct ReplayedOp {
  double op_ms = 0;
  /// Layer self times; they sum to op_ms.
  std::vector<std::pair<std::string, double>> self_ms;
  /// Chains of times that must nest, innermost first: each the time of a
  /// probe or phase that does the work of the one before it plus one more
  /// layer's. The probe-derived layer times are differences of neighbours,
  /// so a pair out of order means a layer time below zero (CheckNesting).
  using Chain = std::vector<std::pair<std::string, double>>;
  std::vector<Chain> nesting;
  std::map<std::string, double> layer;      // per-layer metrics
  std::map<std::string, uint64_t> counts;   // work counts
};

/// Checks a replay's work counts against the earlier replays' and its self
/// times against its wall time; failures go to `result`.
void CheckReplay(const ReplayedOp& replay, CountChecker* counts,
                 RunResult* result);

/// The server layer, which no workload's op runs, measured by a probe over
/// the workload's own input outside the op (it does not enter the op's
/// self-time table); server_probe.cc.
class ServerLayerProbe {
 public:
  ServerLayerProbe();
  ~ServerLayerProbe();
  ServerLayerProbe(const ServerLayerProbe&) = delete;
  ServerLayerProbe& operator=(const ServerLayerProbe&) = delete;

  /// Starts an in-process server (one pool thread) and connects to it.
  jsonsi::Status Start();
  /// Session::Ingest of `text` into a fresh session and its Snapshot, and
  /// the round trip of `text` as the body of an ingest request the server
  /// answers without inferring (a session that does not exist): adds
  /// session.ingest_ms, session.snapshot_ms and http.overhead_ms to
  /// `replay`.
  jsonsi::Status Measure(const std::string& text, Tracer* tracer, uint64_t op,
                         ReplayedOp* replay);

 private:
  struct Rig;
  std::unique_ptr<Rig> rig_;
};

/// How far a time in a ReplayedOp::nesting chain may exceed the next one:
/// a share of the next plus a fixed slack, the noise between separately
/// timed runs (the slack covers sub-millisecond probes, where a thread
/// pool's start-up dominates).
constexpr double kNestingTolerance = 0.05;
constexpr double kNestingSlackMs = 0.1;

/// Fails `result` when, on the medians over the replays, a time in a
/// nesting chain exceeds the next by more than the tolerance: then a
/// probe took longer than the phase or larger probe it is subtracted from,
/// and the layer time between them reads below zero. Keeps the chains'
/// medians in result->nesting.
void CheckNesting(const std::vector<ReplayedOp>& replays, RunResult* result);

/// Reports the per-layer metrics of a traced run (medians over the
/// replays), the tracing overhead against the untraced ops, the median
/// replay's self-time table, and writes the spans to `trace_path`.
/// Runs CheckNesting.
void ReportReplays(const std::vector<ReplayedOp>& replays,
                   double untraced_p50_ms, const Tracer& tracer,
                   const std::string& trace_path, RunResult* result);

}  // namespace perfbench

#endif  // JSONSI_PERFBENCH_WORKLOADS_H_
