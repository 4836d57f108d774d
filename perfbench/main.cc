// jsonsi_perfbench — the benchmark's one process.
//
//   jsonsi_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --work-dir <dir>
//
// Generates the workload's corpus from the seed, times ops in-process, and
// prints every metric by name with its unit and sample count; the last
// stdout line is the JSON result
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics for
// --trace 0, per-layer metrics for --trace 1. perfbench/run.py builds and
// runs it; perfbench/README.md describes the workloads and metrics.
//
// Self-test levers (perfbench/selftest.py): --corrupt-reference checks ops
// against a wrong reference, --keep-caches skips the per-op cache clear,
// --records N shrinks the corpus, --misorder-probes swaps two probe times
// in the traced run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "measure.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "jsonsi_perfbench: %s\nusage: jsonsi_perfbench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> --work-dir "
               "<dir> [--records N] [--corrupt-reference] [--keep-caches] "
               "[--misorder-probes]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--corrupt-reference") {
      config.corrupt_reference = true;
    } else if (arg == "--keep-caches") {
      config.keep_caches = true;
    } else if (arg == "--misorder-probes") {
      config.misorder_probes = true;
    } else if (!value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      config.workload = value, ++i;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10), ++i;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, nullptr), ++i;
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "0") != 0, ++i;
    } else if (arg == "--work-dir") {
      config.work_dir = value, ++i;
    } else if (arg == "--records") {
      config.records = std::strtoull(value, nullptr, 10), ++i;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == config.workload;
  if (!known) return Usage(("unknown workload '" + config.workload + "'").c_str());
  if (config.work_dir.empty()) return Usage("--work-dir is required");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");

  HostFingerprint host = ProbeHostBefore();
  const double mem_before = host.mem_probe_ms_before;
  RunResult result = RunBatchWorkload(config, &host);
  ProbeHostAfter(&host);
  if (config.trace) {
    AddMetric(&result, "host.mem_probe_ms", mem_before, "ms");
    AddMetric(&result, "host.probe_parallelism", host.probe_parallelism,
              "ratio");
    AddMetric(&result, "host.cpu_per_wall", host.workload_cpu_per_wall,
              "ratio");
    CheckLayerMetricsComplete(&result);
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("host %s\n", HostFingerprintJson(host).c_str());
  std::string counts = "{";
  for (const auto& [name, value] : result.counts) {
    counts += (counts.size() > 1 ? ", " : "") + JsonQuote(name) + ": " +
              std::to_string(value);
  }
  std::printf("counts %s}\n", counts.c_str());
  for (const Metric& m : result.metrics) {
    std::printf("metric %-24s %14.6g %-9s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples) std::printf(" n=%zu", m.samples);
    if (!m.note.empty()) std::printf(" (%s of n)", m.note.c_str());
    std::printf("\n");
  }
  if (!result.self_ms.empty()) {
    std::printf("layer self times of the median traced op (ms):\n");
    for (const auto& [layer, ms] : result.self_ms) {
      std::printf("  %-20s %12.4f\n", layer.c_str(), ms);
    }
  }
  if (!result.nesting.empty()) {
    std::printf("nesting chains, medians over the replays (ms):\n");
    for (const std::string& line : result.nesting) {
      std::printf("  %s\n", line.c_str());
    }
  }
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench: ERROR: %s\n", e.c_str());
  }

  std::string metrics;
  for (const Metric& m : result.metrics) {
    metrics += (metrics.empty() ? "" : ", ") + JsonQuote(m.name) +
               ": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": " + JsonQuote(m.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
