// Measurement helpers shared by the benchmark's workloads: clocks, sample
// summaries, the span recorder of the traced run, work-count checks, and the
// host fingerprint. Nothing here knows about a particular workload.

#ifndef JSONSI_PERFBENCH_MEASURE_H_
#define JSONSI_PERFBENCH_MEASURE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
uint64_t WallNs();
/// CPU time of the whole process (all threads) in nanoseconds.
uint64_t ProcessCpuNs();

inline double NsToMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Percentile `p` (0..100) by linear interpolation between closest ranks.
/// The input need not be sorted; an empty input yields 0.
double Percentile(std::vector<double> samples, double p);
inline double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50);
}

/// The highest percentile of {99.9, 99, 95, 90, 80, 75, 50} that still has at
/// least ten samples beyond it (50 when there are fewer than 20 samples).
double TailPercentileFor(size_t samples);

/// One named metric of a run's result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;   // 0 = not a sampled timing
  std::string note;     // e.g. "p90"
};

/// Latency summary of one sample set: p10, p50, the tail percentile.
struct LatencySummary {
  double p10 = 0, p50 = 0, tail = 0, tail_percentile = 50;
  size_t samples = 0;
};
LatencySummary Summarize(const std::vector<double>& ms);

/// Work counts of one op (records, bytes, cache hits, ...). An op's counts
/// must equal the first op's exactly; anything else means state leaked
/// between ops (a warm cache) or the work is not deterministic.
///
/// Exception: counts named racy (SetRacy) may differ by kRacyTolerance of
/// the first op's value. With several workers, two of them can compute the
/// same Fuse pair at once and both miss the fuse cache, which also shifts
/// the interner hits the recomputation makes; interner misses, evictions
/// and everything else stay exact, so a warm cache still shows.
class CountChecker {
 public:
  static constexpr double kRacyTolerance = 0.05;

  void SetRacy(std::set<std::string> names) { racy_ = std::move(names); }

  /// Compares `counts` against the first set seen; returns false (and keeps
  /// the first mismatch's description) when they differ.
  bool Check(const std::map<std::string, uint64_t>& counts);
  const std::map<std::string, uint64_t>& reference() const { return first_; }
  bool ok() const { return mismatch_.empty(); }
  const std::string& mismatch() const { return mismatch_; }

 private:
  bool have_first_ = false;
  std::set<std::string> racy_;
  std::map<std::string, uint64_t> first_;
  std::string mismatch_;
};

/// Spans of the traced run: name, start, end, thread, parent. Kept in
/// memory and written out once, as Chrome trace_event JSON.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint32_t tid = 0;      // dense thread index, 0 = the main thread
    int64_t parent = -1;   // index into spans(), -1 for a root
    uint64_t op = 0;       // which replayed op the span belongs to
  };

  /// Opens a span on the calling thread; returns its id for End().
  int64_t Begin(const std::string& name, int64_t parent, uint64_t op);
  void End(int64_t id);

  std::vector<Span> spans() const;

  /// Self time of span `id`: its duration minus the part covered by its
  /// children on the same thread (children on worker threads run
  /// concurrently and are not subtracted).
  static uint64_t SelfNs(const std::vector<Span>& spans, int64_t id);

  /// {"traceEvents": [...]} with complete ("X") events in microseconds,
  /// span ids and parents in args.
  std::string ToChromeTrace() const;

 private:
  static uint32_t ThreadIndex();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t parent,
             uint64_t op)
      : tracer_(tracer), id_(tracer->Begin(name, parent, op)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Host description printed with every result.
struct HostFingerprint {
  std::string cpu_model;
  std::string simd_kernel;
  unsigned nproc = 0;
  /// CPU s / wall s of nproc freshly started spinning threads over 200 ms:
  /// the parallelism the host grants a new thread pool right now.
  double probe_parallelism = 0;
  /// Fixed-work random-memory walk, timed before and after the run.
  double mem_probe_ms_before = 0;
  double mem_probe_ms_after = 0;
  /// CPU s / wall s of the measured ops (the effective parallelism of the
  /// workload itself; the headline figure on wikidata-parallel).
  double workload_cpu_per_wall = 0;
};
HostFingerprint ProbeHostBefore();
void ProbeHostAfter(HostFingerprint* host);
std::string HostFingerprintJson(const HostFingerprint& host);

/// Peak resident set (VmHWM) of this process in MiB, and a reset of the
/// peak to the current resident set so set-up allocations do not count.
double PeakRssMb();
void ResetPeakRss();

/// JSON string literal with escapes.
std::string JsonQuote(const std::string& s);
/// A double with all its significant digits.
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // JSONSI_PERFBENCH_MEASURE_H_
