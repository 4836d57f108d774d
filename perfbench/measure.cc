#include "measure.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "json/simd/kernel.h"

namespace perfbench {

uint64_t WallNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double TailPercentileFor(size_t samples) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 80.0, 75.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

LatencySummary Summarize(const std::vector<double>& ms) {
  LatencySummary s;
  s.samples = ms.size();
  s.p10 = Percentile(ms, 10);
  s.p50 = Percentile(ms, 50);
  s.tail_percentile = TailPercentileFor(ms.size());
  s.tail = Percentile(ms, s.tail_percentile);
  return s;
}

bool CountChecker::Check(const std::map<std::string, uint64_t>& counts) {
  if (!have_first_) {
    have_first_ = true;
    first_ = counts;
    return true;
  }
  std::ostringstream out;
  bool same = counts.size() == first_.size();
  for (const auto& [name, value] : counts) {
    auto it = first_.find(name);
    const uint64_t want = it == first_.end() ? 0 : it->second;
    const uint64_t diff = value > want ? value - want : want - value;
    const bool racy = racy_.count(name) != 0;
    if (racy ? static_cast<double>(diff) >
                   kRacyTolerance * static_cast<double>(want)
             : diff != 0) {
      same = false;
      out << name << " = " << value << " (first op: " << want << ") ";
    }
  }
  if (!same && mismatch_.empty()) mismatch_ = out.str();
  return same;
}

uint32_t Tracer::ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t index = next.fetch_add(1);
  return index;
}

int64_t Tracer::Begin(const std::string& name, int64_t parent, uint64_t op) {
  Span span;
  span.name = name;
  span.tid = ThreadIndex();
  span.parent = parent;
  span.op = op;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  const int64_t id = static_cast<int64_t>(spans_.size() - 1);
  spans_.back().start_ns = WallNs();
  return id;
}

void Tracer::End(int64_t id) {
  const uint64_t now = WallNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

uint64_t Tracer::SelfNs(const std::vector<Span>& spans, int64_t id) {
  const Span& s = spans[static_cast<size_t>(id)];
  uint64_t covered = 0;
  for (const Span& c : spans) {
    if (c.parent == id && c.tid == s.tid) covered += c.end_ns - c.start_ns;
  }
  const uint64_t dur = s.end_ns - s.start_ns;
  return covered > dur ? 0 : dur - covered;
}

std::string Tracer::ToChromeTrace() const {
  std::vector<Span> all = spans();
  std::string out = "{\"traceEvents\": [";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out += i ? ",\n  " : "\n  ";
    out += "{\"name\": " + JsonQuote(s.name) +
           ", \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": " +
           JsonNumber(static_cast<double>(s.start_ns) / 1e3) +
           ", \"dur\": " +
           JsonNumber(static_cast<double>(s.end_ns - s.start_ns) / 1e3) +
           ", \"pid\": 1, \"tid\": " + std::to_string(s.tid) +
           ", \"args\": {\"id\": " + std::to_string(i) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"op\": " + std::to_string(s.op) + "}}";
  }
  out += all.empty() ? "]}\n" : "\n]}\n";
  return out;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

// Fixed-work random walk over a 32 MiB table: one dependent cache/TLB miss
// per step, so it times the host's memory latency. The table links slot i
// to LCG(i); a power-of-two modulus with multiplier = 1 (mod 4) and an odd
// increment makes that one cycle through every slot, identical on every run.
double MemProbeMs() {
  constexpr size_t kSlots = (32u << 20) / sizeof(uint32_t);
  constexpr size_t kSteps = 1u << 18;
  std::vector<uint32_t> next(kSlots);
  for (size_t i = 0; i < kSlots; ++i) {
    next[i] = static_cast<uint32_t>((i * 2862933555777941757ull + 3037000493ull) &
                                    (kSlots - 1));
  }
  const uint64_t t0 = WallNs();
  uint32_t at = 0;
  for (size_t i = 0; i < kSteps; ++i) at = next[at];
  const uint64_t t1 = WallNs();
  volatile uint32_t sink = at;  // keeps the walk from being optimized away
  (void)sink;
  return NsToMs(t1 - t0);
}

double ParallelismProbe(unsigned threads) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> spinners;
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t t0 = WallNs();
  for (unsigned i = 0; i < threads; ++i) {
    spinners.emplace_back([&stop] {
      volatile uint64_t x = 1;
      while (!stop.load(std::memory_order_relaxed)) x = x * 3 + 1;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (std::thread& t : spinners) t.join();
  const uint64_t wall = WallNs() - t0;
  const uint64_t cpu = ProcessCpuNs() - cpu0;
  return wall ? static_cast<double>(cpu) / static_cast<double>(wall) : 0;
}

}  // namespace

HostFingerprint ProbeHostBefore() {
  HostFingerprint host;
  host.cpu_model = CpuModel();
  host.simd_kernel =
      jsonsi::json::simd::KernelName(jsonsi::json::simd::ActiveKernel());
  host.nproc = std::max(1u, std::thread::hardware_concurrency());
  host.probe_parallelism = ParallelismProbe(host.nproc);
  host.mem_probe_ms_before = MemProbeMs();
  return host;
}

void ProbeHostAfter(HostFingerprint* host) {
  host->mem_probe_ms_after = MemProbeMs();
}

std::string HostFingerprintJson(const HostFingerprint& host) {
  return "{\"cpu_model\": " + JsonQuote(host.cpu_model) +
         ", \"simd_kernel\": " + JsonQuote(host.simd_kernel) +
         ", \"nproc\": " + std::to_string(host.nproc) +
         ", \"probe_parallelism\": " + JsonNumber(host.probe_parallelism) +
         ", \"workload_cpu_per_wall\": " +
         JsonNumber(host.workload_cpu_per_wall) +
         ", \"mem_probe_ms_before\": " + JsonNumber(host.mem_probe_ms_before) +
         ", \"mem_probe_ms_after\": " + JsonNumber(host.mem_probe_ms_after) +
         "}";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss() {
  // "5" resets VmHWM to the current resident set (Linux >= 4.0).
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
