// Batch workloads: one op is one whole-corpus inference through
// core::SchemaInferencer::InferFromFile, with cold caches, as a fresh
// `jsi infer` would run it.

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <set>

#include "annotate/annotation.h"
#include "core/schema_inferencer.h"
#include "datagen/generator.h"
#include "engine/parallel_reduce.h"
#include "engine/thread_pool.h"
#include "fusion/fuse.h"
#include "fusion/tree_fuser.h"
#include "inference/direct_infer.h"
#include "io/input_source.h"
#include "json/jsonl.h"
#include "json/jsonl_chunk.h"
#include "json/serializer.h"
#include "json/simd/kernel.h"
#include "stats/type_stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using jsonsi::Result;
using jsonsi::types::TypeRef;
namespace core = jsonsi::core;
namespace datagen = jsonsi::datagen;
namespace io = jsonsi::io;
namespace json = jsonsi::json;

struct BatchSpec {
  const char* name;
  datagen::DatasetId dataset;
  uint64_t records;
  size_t threads;  // 0 = nproc
  io::IoMode io_mode;
  bool annotate;
};

// Corpus sizes keep one op at roughly 50-150 ms on a 4-vCPU host, so a run
// holds a few hundred ops and a p95 tail.
const BatchSpec kSpecs[] = {
    {"wikidata-parallel", datagen::DatasetId::kWikidata, 2000, 0,
     io::IoMode::kAuto, false},
    {"twitter-stream-annotate", datagen::DatasetId::kTwitter, 5000, 0,
     io::IoMode::kStream, true},
};

// Set-up is timed this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 20;

// Work counts that race between parallel workers (see CountChecker).
const std::set<std::string> kRacyCounts = {"intern.hits", "fusecache.hits",
                                           "fusecache.misses"};

const BatchSpec* FindSpec(const std::string& name) {
  for (const BatchSpec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

// The generated corpus on disk plus the reference the ops are checked
// against.
struct Corpus {
  std::string path;
  uint64_t bytes = 0;
  uint64_t records = 0;
  std::string reference_schema;
  std::unique_ptr<jsonsi::annotate::Annotation> reference_annotation;
};

Corpus MakeCorpus(const BatchSpec& spec, const RunConfig& config) {
  Corpus corpus;
  corpus.records = config.records ? config.records : spec.records;
  auto generator = datagen::MakeGenerator(spec.dataset, config.seed);
  std::vector<json::ValueRef> values = generator->GenerateMany(corpus.records);
  std::string text;
  for (const json::ValueRef& v : values) {
    json::AppendJson(*v, &text);
    text.push_back('\n');
  }
  corpus.bytes = text.size();
  corpus.path = config.work_dir + "/" + spec.name + "-" +
                std::to_string(config.seed) + ".jsonl";
  std::ofstream(corpus.path, std::ios::binary | std::ios::trunc)
      .write(text.data(), static_cast<std::streamsize>(text.size()));

  // The reference: the paper-level serial pipeline over the generated
  // values (DOM typing, one thread), independent of the text path.
  core::InferenceOptions ref_options;
  ref_options.num_threads = 1;
  ref_options.annotate = spec.annotate;
  core::Schema reference = core::SchemaInferencer(ref_options)
                               .InferFromValues(values);
  corpus.reference_schema = reference.ToString();
  if (config.corrupt_reference) corpus.reference_schema += " (corrupted)";
  if (reference.annotation) {
    corpus.reference_annotation =
        std::make_unique<jsonsi::annotate::Annotation>(
            reference.annotation->Clone());
  }
  ClearCaches();
  return corpus;
}

core::InferenceOptions OpOptions(const BatchSpec& spec, unsigned nproc) {
  core::InferenceOptions options;
  options.num_threads = spec.threads ? spec.threads : nproc;
  options.io.mode = spec.io_mode;
  options.annotate = spec.annotate;
  return options;
}

// Checks one op's schema (and annotation) against the reference.
std::string CheckSchema(const Corpus& corpus, const core::Schema& schema,
                        const std::string& rendered) {
  if (rendered != corpus.reference_schema) {
    return "schema differs from the reference";
  }
  if (corpus.reference_annotation) {
    if (!schema.annotation ||
        !schema.annotation->Equals(*corpus.reference_annotation)) {
      return "annotation differs from the reference";
    }
  }
  return "";
}

struct OpOutcome {
  std::string error;  // empty = the op succeeded with the reference schema
  double wall_ms = 0;
  double cpu_ms = 0;
  double read_ms = 0;
  std::map<std::string, uint64_t> counts;
};

// One untraced op: cold caches, InferFromFile, then render the schema the
// way `jsi infer` prints it (the "read" of the result).
OpOutcome RunOp(const core::SchemaInferencer& inferencer, const Corpus& corpus,
                const RunConfig& config) {
  OpOutcome out;
  if (!config.keep_caches) ClearCaches();
  const CacheCounters before = CacheCounters::Now();
  json::IngestStats ingest;
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t t0 = WallNs();
  Result<core::Schema> schema = inferencer.InferFromFile(corpus.path, &ingest);
  const uint64_t t1 = WallNs();
  const uint64_t cpu1 = ProcessCpuNs();
  const CacheCounters after = CacheCounters::Now();
  out.wall_ms = NsToMs(t1 - t0);
  out.cpu_ms = NsToMs(cpu1 - cpu0);
  if (!schema.ok()) {
    out.error = "InferFromFile failed: " + schema.status().ToString();
    return out;
  }
  const uint64_t r0 = WallNs();
  const std::string rendered = schema.value().ToString();
  out.read_ms = NsToMs(WallNs() - r0);
  out.error = CheckSchema(corpus, schema.value(), rendered);
  const core::SchemaStats& stats = schema.value().stats;
  out.counts["records"] = stats.record_count;
  out.counts["bytes"] = ingest.bytes_read;
  out.counts["distinct_types"] = stats.distinct_type_count;
  AddCacheDeltas(before, after, &out.counts, nullptr);
  return out;
}

// ---------------------------------------------------------------------------
// Traced replay: one op as the chain of layer calls, each phase a span.

// Runs `fn(chunk_index, chunk_text)` for every chunk on a pool of
// `threads` workers (inline for one thread), with a worker span per chunk
// when `tracer` is set. Returns per-chunk durations.
template <typename Fn>
std::vector<double> ForEachChunk(std::string_view text,
                                 const std::vector<json::ChunkSpan>& spans,
                                 size_t threads, Tracer* tracer,
                                 int64_t parent, uint64_t op, Fn&& fn) {
  std::vector<double> chunk_ms(spans.size());
  auto run = [&](size_t i) {
    std::optional<ScopedSpan> span;
    if (tracer) span.emplace(tracer, "chunk", parent, op);
    const uint64_t t0 = WallNs();
    fn(i, text.substr(spans[i].begin, spans[i].size()));
    chunk_ms[i] = NsToMs(WallNs() - t0);
  };
  if (threads <= 1) {
    for (size_t i = 0; i < spans.size(); ++i) run(i);
    return chunk_ms;
  }
  jsonsi::engine::ThreadPool pool(threads);
  for (size_t i = 0; i < spans.size(); ++i) pool.Submit([&run, i] { run(i); });
  pool.Wait();
  return chunk_ms;
}

// Sub-layer probes of the type phase, run after the op on the same text and
// chunking: line framing alone, + stage-1 index, + tokenizing, and (for
// annotate) the un-annotated chunk inference. Each is timed like the type
// phase (pool created inside), so differences split the type phase's time.
// The three cheap probes are small next to the pool's start-up, so they run
// kProbeRounds times, interleaved, and each keeps its fastest round.
constexpr int kProbeRounds = 3;

struct Probes {
  double lines_ms = 0, stage1_ms = 0, tokenize_ms = 0, plain_ms = 0;
  uint64_t tokens = 0;
};

Probes RunProbes(const BatchSpec& spec, std::string_view text,
                 const std::vector<json::ChunkSpan>& spans, size_t threads,
                 const json::IngestOptions& ingest, Tracer* tracer,
                 uint64_t op) {
  auto timed = [&](const char* name, auto&& fn) {
    ScopedSpan span(tracer, name, -1, op);
    const uint64_t t0 = WallNs();
    ForEachChunk(text, spans, threads, nullptr, -1, op, fn);
    return NsToMs(WallNs() - t0);
  };
  auto fastest = [](double* best, double ms) {
    if (*best == 0 || ms < *best) *best = ms;
  };
  Probes probes;
  std::vector<uint64_t> tokens(spans.size());
  for (int round = 0; round < kProbeRounds; ++round) {
    fastest(&probes.lines_ms,
            timed("probe.lines", [&](size_t, std::string_view c) {
              FrameLines(c, ingest);
            }));
    fastest(&probes.stage1_ms,
            timed("probe.stage1", [&](size_t, std::string_view c) {
              IndexLines(c, ingest);
            }));
    fastest(&probes.tokenize_ms,
            timed("probe.tokenize", [&](size_t i, std::string_view c) {
              tokens[i] = TokenizeLines(c, ingest);
            }));
  }
  for (uint64_t t : tokens) probes.tokens += t;
  if (spec.annotate) {
    ClearCaches();
    probes.plain_ms = timed("probe.plain", [&](size_t i, std::string_view c) {
      (void)jsonsi::inference::InferJsonLinesChunk(
          c, ingest.parse, ingest.max_recorded_errors, i == 0, false);
    });
  }
  return probes;
}

// Replays one op as the chain of layer calls, each phase a span under a
// root span named `root_name`; returns an error message or "" (filling
// `out`). The result is checked when `corpus` carries a reference.
std::string Replay(const BatchSpec& spec, const Corpus& corpus,
                   const core::InferenceOptions& options, const char* root_name,
                   bool misorder_probes, Tracer* tracer, uint64_t op,
                   ReplayedOp* out) {
  std::string error;
  const size_t threads = options.num_threads;
  const bool parallel = threads > 1;
  const json::IngestOptions& ingest = options.ingest;

  ClearCaches();
  const CacheCounters before = CacheCounters::Now();
  const int64_t root = tracer->Begin(root_name, -1, op);
  // Phase spans, in order; their self times plus the root's own remainder
  // sum to the op's wall time.
  std::vector<std::pair<std::string, int64_t>> phases;
  auto phase = [&](const char* name, auto&& body) {
    ScopedSpan span(tracer, name, root, op);
    phases.emplace_back(name, span.id());
    body(span.id());
  };

  // io: open the source the op would open and read it the way
  // SchemaInferencer::InferFromSource does. A mapping is used in place (one
  // batch; io.next_ms is the open and map); a non-mapped source under
  // --annotate is buffered whole by InputSource::Read calls of buffer_bytes
  // (one batch per call). No batch workload streams without --annotate, so
  // the PipelineReader producer ring of that path is not replayed.
  std::unique_ptr<io::InputSource> source;
  std::string buffered;
  std::string_view text;
  double next_ms = 0;
  uint64_t batches = 0;
  phase("io", [&](int64_t) {
    const uint64_t t0 = WallNs();
    Result<std::unique_ptr<io::InputSource>> opened =
        io::OpenInputSource(corpus.path, options.io);
    if (!opened.ok()) {
      error = "OpenInputSource: " + opened.status().ToString();
      return;
    }
    source = std::move(opened).value();
    if (const std::optional<std::string_view> mapped = source->Contents()) {
      next_ms = NsToMs(WallNs() - t0);
      batches = 1;
      text = *mapped;
      return;
    }
    if (!options.annotate) {
      error = "the replay reads non-mapped input only under --annotate";
      return;
    }
    std::vector<char> buf(options.io.buffer_bytes);
    if (const std::optional<uint64_t> size = source->SizeBytes()) {
      buffered.reserve(static_cast<size_t>(*size));
    }
    for (;;) {
      const uint64_t r0 = WallNs();
      Result<size_t> got = source->Read(buf.data(), buf.size());
      next_ms += NsToMs(WallNs() - r0);
      if (!got.ok()) {
        error = "InputSource::Read: " + got.status().ToString();
        return;
      }
      if (got.value() == 0) break;
      ++batches;
      buffered.append(buf.data(), got.value());
    }
    text = buffered;
  });
  if (!error.empty()) {
    tracer->End(root);
    return error;
  }

  // type (+ split, policy, annotate.merge on the chunk-parallel path).
  std::vector<json::ChunkSpan> spans;
  std::vector<double> chunk_ms;
  std::vector<TypeRef> typed;
  json::IngestStats stats;
  std::unique_ptr<jsonsi::annotate::Annotation> annotation;
  if (!parallel) {
    spans.push_back({0, text.size()});
    phase("type", [&](int64_t id) {
      chunk_ms = ForEachChunk(
          text, spans, 1, nullptr, id, op, [&](size_t, std::string_view chunk) {
            json::LineFn fn = [&](std::string_view line) -> Result<bool> {
              Result<TypeRef> t =
                  jsonsi::inference::DirectInferType(line, ingest.parse);
              if (!t.ok()) return t.status();
              typed.push_back(std::move(t).value());
              return true;
            };
            jsonsi::Status st = json::IngestJsonLines(chunk, fn, ingest, &stats);
            if (!st.ok()) error = "ingest: " + st.ToString();
          });
    });
  } else {
    phase("split", [&](int64_t) {
      spans = json::SplitJsonLines(
          text, threads * std::max<size_t>(1, options.chunks_per_thread));
    });
    std::vector<jsonsi::inference::TypedChunkOutcome> outcomes(spans.size());
    phase("type", [&](int64_t id) {
      chunk_ms = ForEachChunk(
          text, spans, threads, tracer, id, op,
          [&](size_t i, std::string_view chunk) {
            outcomes[i] = jsonsi::inference::InferJsonLinesChunk(
                chunk, ingest.parse, ingest.max_recorded_errors, i == 0,
                spec.annotate);
          });
    });
    phase("policy", [&](int64_t) {
      json::ChunkReplay decision =
          jsonsi::inference::ReplayChunkPolicy(outcomes, ingest, &stats);
      if (!decision.status.ok()) {
        error = "chunk policy replay: " + decision.status.ToString();
      }
      typed = jsonsi::inference::TakeIncludedTypes(std::move(outcomes),
                                                   decision);
    });
    if (spec.annotate) {
      phase("annotate.merge", [&](int64_t) {
        annotation = std::make_unique<jsonsi::annotate::Annotation>();
        for (const auto& outcome : outcomes) {
          if (outcome.annotation) annotation->MergeFrom(*outcome.annotation);
        }
      });
    }
  }

  // distinct + fuse per partition (contiguous, one per thread, as the typed
  // reduce cuts them), then the log-depth tree reduce.
  const size_t n = typed.size();
  const size_t parts = parallel ? std::max<size_t>(1, std::min(threads, n)) : 1;
  auto part_begin = [&](size_t p) {
    return p * (n / parts) + std::min(p, n % parts);
  };
  std::unique_ptr<jsonsi::engine::ThreadPool> pool;
  auto per_partition = [&](auto&& fn) {
    if (!parallel) return fn(0);
    for (size_t p = 0; p < parts; ++p) pool->Submit([&fn, p] { fn(p); });
    pool->Wait();
  };
  size_t distinct = 0;
  phase("distinct", [&](int64_t) {
    if (parallel) pool = std::make_unique<jsonsi::engine::ThreadPool>(threads);
    std::vector<jsonsi::stats::DistinctTypeSet> sets(parts);
    per_partition([&](size_t p) {
      for (size_t i = part_begin(p); i < part_begin(p + 1); ++i) {
        sets[p].Add(typed[i]);
      }
    });
    for (size_t p = 1; p < parts; ++p) sets[0].Merge(sets[p]);
    distinct = sets[0].size();
  });
  std::vector<TypeRef> partials(parts);
  phase("fuse", [&](int64_t id) {
    per_partition([&](size_t p) {
      std::optional<ScopedSpan> worker;
      if (parallel) worker.emplace(tracer, "partition", id, op);
      jsonsi::fusion::TreeFuser fuser;
      for (size_t i = part_begin(p); i < part_begin(p + 1); ++i) {
        fuser.Add(typed[i]);
      }
      partials[p] = fuser.Finish();
    });
  });
  TypeRef result = partials[0];
  if (parallel) {
    phase("reduce", [&](int64_t) {
      result = jsonsi::engine::ParallelTreeReduce(
          *pool, std::move(partials), jsonsi::types::Type::Empty(),
          [](const TypeRef& a, const TypeRef& b) {
            return jsonsi::fusion::Fuse(a, b);
          });
    });
  }
  pool.reset();
  tracer->End(root);
  const CacheCounters after = CacheCounters::Now();
  if (!error.empty()) return error;

  // Check the replayed op's output like a real op's.
  core::Schema schema;
  schema.type = result;
  schema.annotation = std::move(annotation);
  if (!corpus.reference_schema.empty()) {
    error = CheckSchema(corpus, schema, schema.ToString());
    if (!error.empty()) return error;
  }

  Probes probes =
      RunProbes(spec, text, spans, parallel ? threads : 1, ingest, tracer, op);
  if (misorder_probes) std::swap(probes.stage1_ms, probes.tokenize_ms);

  // Self times. The type phase's time is split by the probes: line framing
  // joins the split layer, then stage 1, tokenizing, typing, annotating.
  const std::vector<Tracer::Span> all = tracer->spans();
  auto self = [&](const std::string& name) {
    for (const auto& [phase_name, id] : phases) {
      if (phase_name == name) return NsToMs(Tracer::SelfNs(all, id));
    }
    return 0.0;
  };
  const Tracer::Span& root_span = all[static_cast<size_t>(root)];
  out->op_ms = NsToMs(root_span.end_ns - root_span.start_ns);
  const double type_ms = self("type");
  const double typed_ms = spec.annotate ? probes.plain_ms : type_ms;
  const double split_ms = self("split") + probes.lines_ms;
  const double stage1_ms = probes.stage1_ms - probes.lines_ms;
  const double tokenize_ms = probes.tokenize_ms - probes.stage1_ms;
  const double infer_ms = typed_ms - probes.tokenize_ms;
  const double annotate_ms = type_ms - typed_ms;
  out->self_ms = {{"io", self("io")},
                  {"split", split_ms},
                  {"stage1", stage1_ms},
                  {"tokenize", tokenize_ms},
                  {"type", infer_ms}};
  if (spec.annotate) out->self_ms.emplace_back("annotate", annotate_ms);
  ReplayedOp::Chain chain = {{"probe.lines", probes.lines_ms},
                             {"probe.stage1", probes.stage1_ms},
                             {"probe.tokenize", probes.tokenize_ms}};
  if (spec.annotate) chain.emplace_back("probe.plain", typed_ms);
  chain.emplace_back("type phase", type_ms);
  out->nesting.push_back(std::move(chain));
  for (const char* name : {"policy", "annotate.merge", "distinct", "fuse",
                           "reduce"}) {
    for (const auto& [phase_name, id] : phases) {
      if (phase_name == name) out->self_ms.emplace_back(name, self(name));
    }
  }
  const double unattributed_ms = NsToMs(Tracer::SelfNs(all, root));
  out->self_ms.emplace_back("unattributed", unattributed_ms);

  const double bytes = static_cast<double>(stats.bytes_read);
  const double records = static_cast<double>(typed.size());
  out->layer = {
      {"io.next_ms", next_ms},
      {"io.batches", static_cast<double>(batches)},
      {"stage1.ns_per_byte", stage1_ms * 1e6 / bytes},
      {"tokenize.ns_per_byte", tokenize_ms * 1e6 / bytes},
      {"tokenize.tokens", static_cast<double>(probes.tokens)},
      {"type.ns_per_record", infer_ms * 1e6 / records},
      {"type.records", records},
      {"fuse.ms", self("fuse")},
      {"fuse.distinct_types", static_cast<double>(distinct)},
      {"distinct.ms", self("distinct")},
      {"split.ms", split_ms},
      {"unattributed_share", unattributed_ms / out->op_ms},
  };
  if (parallel) {
    double chunk_sum = 0, chunk_max = 0;
    for (double ms : chunk_ms) {
      chunk_sum += ms;
      chunk_max = std::max(chunk_max, ms);
    }
    out->layer["split.chunks"] = static_cast<double>(spans.size());
    out->layer["policy.ms"] = self("policy");
    out->layer["chunk.skew"] =
        chunk_max * static_cast<double>(chunk_ms.size()) / chunk_sum;
    out->layer["reduce.ms"] = self("reduce");
    out->layer["parallel.efficiency"] =
        chunk_sum / (static_cast<double>(threads) * type_ms);
  }
  if (spec.annotate) {
    out->layer["annotate.ns_per_record"] = annotate_ms * 1e6 / records;
    out->layer["annotate.merge_ms"] = self("annotate.merge");
  }
  out->counts["records"] = typed.size();
  out->counts["bytes"] = stats.bytes_read;
  out->counts["distinct_types"] = distinct;
  out->counts["chunks"] = spans.size();
  out->counts["io.batches"] = batches;
  out->counts["tokens"] = probes.tokens;
  AddCacheDeltas(before, after, &out->counts, &out->layer);
  return "";
}

// The replay must reproduce an untraced op's work on the counts both keep.
bool SameSharedCounts(const std::map<std::string, uint64_t>& op,
                      const std::map<std::string, uint64_t>& replay,
                      const std::set<std::string>& racy, std::string* diff) {
  std::map<std::string, uint64_t> shared;
  for (const auto& [name, value] : replay) {
    if (op.count(name)) shared[name] = value;
  }
  std::map<std::string, uint64_t> op_shared;
  for (const auto& [name, value] : shared) op_shared[name] = op.at(name);
  CountChecker checker;
  checker.SetRacy(racy);
  checker.Check(op_shared);
  if (checker.Check(shared)) return true;
  *diff = checker.mismatch();
  return false;
}

// Per-layer metrics of the layers an op without annotation does not run,
// measured by a probe over the workload's own corpus file outside the op (it
// does not enter the op's self-time table): the chunk-parallel engine with
// annotation on `threads` workers. Adds to `replay` the metrics it does not
// hold yet, and the probe's nesting chains.
std::string ProbeChunkLayers(const std::string& path, size_t threads,
                             Tracer* tracer, uint64_t op, ReplayedOp* replay) {
  const BatchSpec spec = {"probe", datagen::DatasetId::kGitHub, 0, threads,
                          io::IoMode::kAuto, true};
  Corpus corpus;
  corpus.path = path;
  ReplayedOp probe;
  const std::string error =
      Replay(spec, corpus, OpOptions(spec, static_cast<unsigned>(threads)),
             "probe.chunk_layers", false, tracer, op, &probe);
  for (const auto& [name, value] : probe.layer) {
    replay->layer.emplace(name, value);
  }
  for (ReplayedOp::Chain& chain : probe.nesting) {
    for (auto& entry : chain) entry.first = "chunk probe " + entry.first;
    replay->nesting.push_back(std::move(chain));
  }
  return error;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const BatchSpec& s : kSpecs) names.push_back(s.name);
  return names;
}

RunResult RunBatchWorkload(const RunConfig& config, HostFingerprint* host) {
  RunResult result;
  const BatchSpec& spec = *FindSpec(config.workload);
  const Corpus corpus = MakeCorpus(spec, config);
  const core::InferenceOptions options = OpOptions(spec, host->nproc);
  const double mb = static_cast<double>(corpus.bytes) / (1024.0 * 1024.0);

  // Every op's work counts must match the warm-up ops', which start from
  // caches cleared by set-up, so an op that finds a warm cache shows.
  CountChecker op_counts;
  op_counts.SetRacy(options.num_threads > 1 ? kRacyCounts
                                            : std::set<std::string>{});

  // Set-up: kernel dispatch, the inferencer, one discarded warm-up op.
  std::vector<double> setup_s;
  std::unique_ptr<core::SchemaInferencer> inferencer;
  auto set_up = [&] {
    const uint64_t t0 = WallNs();
    ClearCaches();
    (void)jsonsi::json::simd::ActiveKernel();
    inferencer = std::make_unique<core::SchemaInferencer>(options);
    const OpOutcome warm = RunOp(*inferencer, corpus, config);
    setup_s.push_back(static_cast<double>(WallNs() - t0) / 1e9);
    if (!warm.error.empty()) result.Fail("warm-up op: " + warm.error);
    if (!op_counts.Check(warm.counts)) {
      result.Fail("work counts differ between ops: " + op_counts.mismatch());
    }
  };
  set_up();
  ResetPeakRss();

  std::vector<double> wall_ms, cpu_ms_per_mb, read_ms;
  uint64_t cpu_ns = 0, wall_ns = 0;
  Tracer tracer;
  std::vector<ReplayedOp> replays;
  ServerLayerProbe server_probe;
  std::string corpus_text;
  if (config.trace) {
    Result<std::string> text = io::ReadFileToString(corpus.path);
    jsonsi::Status st = text.ok() ? server_probe.Start() : text.status();
    if (!st.ok()) {
      result.Fail("server probe: " + st.ToString());
      return result;
    }
    corpus_text = std::move(text).value();
  }
  CountChecker replay_counts;
  replay_counts.SetRacy(options.num_threads > 1 ? kRacyCounts
                                                : std::set<std::string>{});
  // The other set-up repetitions are spread over the measuring time, so
  // their median spans the run's host phases like the ops' does.
  const uint64_t start = WallNs();
  const uint64_t span_ns = static_cast<uint64_t>(config.seconds * 1e9);
  const uint64_t setup_every = span_ns / kSetupRepeats;
  while (WallNs() - start < span_ns || result.attempted < 3 ||
         (config.trace && replays.size() < 3)) {
    if (setup_s.size() < static_cast<size_t>(kSetupRepeats) &&
        WallNs() - start >= setup_s.size() * setup_every) {
      set_up();
    }
    const OpOutcome o = RunOp(*inferencer, corpus, config);
    ++result.attempted;
    if (!o.error.empty()) {
      ++result.failed;
      result.Fail("op " + std::to_string(result.attempted) + ": " + o.error);
      continue;
    }
    if (!op_counts.Check(o.counts)) {
      result.Fail("work counts differ between ops: " + op_counts.mismatch());
    }
    wall_ms.push_back(o.wall_ms);
    cpu_ms_per_mb.push_back(o.cpu_ms / mb);
    read_ms.push_back(o.read_ms);
    cpu_ns += static_cast<uint64_t>(o.cpu_ms * 1e6);
    wall_ns += static_cast<uint64_t>(o.wall_ms * 1e6);
    if (!config.trace) continue;
    ReplayedOp r;
    std::string error = Replay(spec, corpus, options, "op",
                               config.misorder_probes, &tracer, replays.size(),
                               &r);
    // Layers this op does not run, probed over the same corpus.
    if (error.empty() && !(options.num_threads > 1 && spec.annotate)) {
      error = ProbeChunkLayers(corpus.path, host->nproc, &tracer,
                               replays.size(), &r);
    }
    if (error.empty()) {
      jsonsi::Status st =
          server_probe.Measure(corpus_text, &tracer, replays.size(), &r);
      if (!st.ok()) error = "server probe: " + st.ToString();
    }
    if (!error.empty()) {
      result.Fail("replayed op: " + error);
      break;
    }
    CheckReplay(r, &replay_counts, &result);
    replays.push_back(std::move(r));
  }
  const double peak_rss_mb = PeakRssMb();
  while (setup_s.size() < static_cast<size_t>(kSetupRepeats)) set_up();
  result.counts = op_counts.reference();
  host->workload_cpu_per_wall =
      wall_ns ? static_cast<double>(cpu_ns) / static_cast<double>(wall_ns) : 0;
  const LatencySummary op = Summarize(wall_ms);

  if (!config.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.mb_per_s = op.p50 > 0 ? mb / (op.p50 / 1e3) : 0;
    e2e.op = op;
    e2e.cpu_ms_per_mb = Median(cpu_ms_per_mb);
    e2e.cpu_samples = cpu_ms_per_mb.size();
    e2e.peak_rss_mb = peak_rss_mb;
    e2e.read = Summarize(read_ms);
    ReportEndToEnd(e2e, &result);
    return result;
  }

  std::string diff;
  if (!replays.empty() &&
      !SameSharedCounts(result.counts, replay_counts.reference(),
                        options.num_threads > 1 ? kRacyCounts
                                                : std::set<std::string>{},
                        &diff)) {
    result.Fail("replay does not reproduce the op's work: " + diff);
  }
  for (const auto& [name, value] : replay_counts.reference()) {
    result.counts[name] = value;
  }
  ReportReplays(replays, op.p50, tracer,
                config.work_dir + "/trace-" + spec.name + "-" +
                    std::to_string(config.seed) + ".json",
                &result);
  return result;
}

}  // namespace perfbench
