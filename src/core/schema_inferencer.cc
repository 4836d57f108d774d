#include "core/schema_inferencer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "core/io_pump.h"
#include "core/streaming_inferencer.h"
#include "engine/parallel_reduce.h"
#include "engine/thread_pool.h"
#include "fusion/fuse.h"
#include "fusion/tree_fuser.h"
#include "inference/direct_infer.h"
#include "inference/infer.h"
#include "json/jsonl.h"
#include "json/jsonl_chunk.h"
#include "stats/type_stats.h"
#include "support/timer.h"
#include "telemetry/telemetry.h"
#include "types/printer.h"

namespace jsonsi::core {

using types::Type;
using types::TypeRef;

std::string Schema::ToString(bool pretty) const {
  types::PrintOptions opts;
  opts.multiline = pretty;
  return type ? types::ToString(*type, opts) : "Empty";
}

SchemaInferencer::SchemaInferencer(const InferenceOptions& options)
    : options_(options) {
  if (options_.num_threads == 0) {
    options_.num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (options_.num_partitions == 0) {
    options_.num_partitions = options_.num_threads;
  }
}

namespace {

// Tables 2-5 statistics over a run of record types: the distinct-type set
// and the size accumulator, both mergeable, so per-partition partials fold
// into exactly the totals of one serial pass.
struct TypeStats {
  stats::DistinctTypeSet distinct;
  stats::SizeAccumulator sizes;

  void Add(const TypeRef& t) {
    distinct.Add(t);
    sizes.Add(t->size());
  }
  void Merge(const TypeStats& other) {
    distinct.Merge(other.distinct);
    sizes.Merge(other.sizes);
  }
  void WriteTo(SchemaStats* out) const {
    out->distinct_type_count = distinct.size();
    out->min_type_size = sizes.min;
    out->max_type_size = sizes.max;
    out->avg_type_size = sizes.avg();
  }
};

// Everything one slice task produces: the slice's partial schema (a
// thread-local TreeFuser fold), its statistics, its annotation when the
// task ran the Map phase with annotate on, and stage timings for the
// critical-path accounting in SchemaStats.
struct PartitionPartial {
  TypeRef partial;
  std::unique_ptr<annotate::Annotation> annotation;
  TypeStats stats;
  double infer_seconds = 0;
  double fuse_seconds = 0;
};

void RecordNanos(telemetry::Histogram& histogram, double seconds) {
  histogram.Record(seconds > 0 ? static_cast<uint64_t>(seconds * 1e9) : 0);
}

// Statistics, then the slice's Reduce (Figures 5-6) in stream order through
// a balanced-tree TreeFuser. Reads `types` without consuming them, so a
// retried attempt re-runs over the intact input.
void FoldSlice(const TypeRef* types, size_t len, bool collect_stats,
               PartitionPartial* pp) {
  if (collect_stats) {
    JSONSI_SPAN("infer.stats");
    for (size_t i = 0; i < len; ++i) pp->stats.Add(types[i]);
  }
  Stopwatch fuse_watch;
  {
    JSONSI_SPAN("infer.reduce");
    fusion::TreeFuser fuser;
    for (size_t i = 0; i < len; ++i) fuser.Add(types[i]);
    pp->partial = fuser.Finish();
  }
  pp->fuse_seconds = fuse_watch.ElapsedSeconds();
  if (telemetry::Enabled()) {
    RecordNanos(JSONSI_HISTOGRAM("reduce.partition_ns"), pp->fuse_seconds);
  }
}

// The one Map/Reduce pipeline behind every entry point. The n records are
// cut into contiguous slices; `slice_task(begin, len, &partial)` produces
// one slice's partial (the value front end types its slice first, the text
// front end already typed it), and the partials merge in a log-depth
// parallel tree-reduce. Interning is process-global, so identical record
// types dedup across workers despite the thread-local fusers.
//
// num_threads <= 1 runs the whole input as one slice inline — no pool, one
// TreeFuser fold in stream order (so does any run left with a single slice);
// the parallel schema is structurally identical to it (Theorems 5.4/5.5). The pipeline is a pure function of its
// input (inference is deterministic, fusion associative/commutative), so
// re-running it after a transient worker failure is sound — the
// retry-safety corollary of those theorems. Each attempt gets a fresh pool.
template <typename SliceTask>
Status RunPipeline(size_t n, const InferenceOptions& options,
                   const SliceTask& slice_task, Schema* schema) {
  JSONSI_SPAN("infer.pipeline");
  schema->stats.record_count = n;
  const size_t parts =
      options.num_threads <= 1
          ? 1
          : std::max<size_t>(1, std::min(options.num_partitions, n));
  std::vector<PartitionPartial> partials(parts);
  std::optional<engine::ThreadPool> pool;
  {
    JSONSI_SPAN("infer.map");
    if (parts == 1) {
      slice_task(0, n, &partials[0]);
    } else {
      pool.emplace(options.num_threads);
      const size_t base = n / parts;
      const size_t extra = n % parts;
      size_t offset = 0;
      for (size_t p = 0; p < parts; ++p) {
        const size_t len = base + (p < extra ? 1 : 0);
        pool->Submit([&slice_task, &partials, p, begin = offset, len] {
          JSONSI_SPAN("pipeline.worker");
          slice_task(begin, len, &partials[p]);
        });
        offset += len;
      }
      pool->Wait();
      JSONSI_RETURN_IF_ERROR(pool->first_error());
    }
  }

  // Associativity + commutativity make any merge order exact; index order
  // keeps the folds deterministic anyway.
  TypeStats stats;
  std::unique_ptr<annotate::Annotation> annotation;
  double max_infer = 0, max_fuse = 0;
  for (PartitionPartial& pp : partials) {
    stats.Merge(pp.stats);
    if (!annotation) {
      annotation = std::move(pp.annotation);
    } else if (pp.annotation) {
      annotation->MergeFrom(*pp.annotation);
    }
    max_infer = std::max(max_infer, pp.infer_seconds);
    max_fuse = std::max(max_fuse, pp.fuse_seconds);
  }
  if (options.collect_stats) stats.WriteTo(&schema->stats);
  if (annotation) schema->annotation = std::move(annotation);

  Stopwatch reduce_watch;
  size_t rounds = 0;
  if (parts == 1) {
    schema->type = std::move(partials[0].partial);
  } else {
    JSONSI_SPAN("infer.reduce");
    std::vector<TypeRef> types;
    types.reserve(parts);
    for (PartitionPartial& pp : partials) {
      types.push_back(std::move(pp.partial));
    }
    schema->type = engine::ParallelTreeReduce(
        *pool, std::move(types), Type::Empty(),
        [](const TypeRef& a, const TypeRef& b) { return fusion::Fuse(a, b); },
        &rounds);
    JSONSI_RETURN_IF_ERROR(pool->first_error());
  }
  // Critical path: the slowest slice's Map and fold, plus the tree-reduce.
  schema->stats.infer_seconds = max_infer;
  schema->stats.fuse_seconds = max_fuse + reduce_watch.ElapsedSeconds();

  if (telemetry::Enabled()) {
    JSONSI_COUNTER("map.records").Add(n);
    JSONSI_COUNTER("map.partitions").Add(parts);
    JSONSI_COUNTER("reduce.partials").Add(parts);
    if (parts > 1) {
      JSONSI_COUNTER("pipeline.parallel.runs").Increment();
      JSONSI_COUNTER("pipeline.parallel.records").Add(n);
      JSONSI_COUNTER("pipeline.parallel.partitions").Add(parts);
      JSONSI_COUNTER("pipeline.parallel.reduce_rounds").Add(rounds);
    }
    JSONSI_HISTOGRAM("infer.fused_size")
        .Record(schema->type ? schema->type->size() : 0);
  }
  return Status::OK();
}

// RunPipeline under the retry policy.
template <typename SliceTask>
Result<Schema> InferWithRetry(size_t n, const InferenceOptions& options,
                              const SliceTask& slice_task) {
  Schema schema;
  Status st = engine::RunWithRetry(
      [&]() -> Status {
        schema = Schema{};
        return RunPipeline(n, options, slice_task, &schema);
      },
      options.retry);
  if (!st.ok()) return st;
  return schema;
}

}  // namespace

Result<Schema> SchemaInferencer::TryInferFromValues(
    const std::vector<json::ValueRef>& values) const {
  // The value front end: each slice task runs the Map phase (Figure 4) on
  // its values, then the shared fold.
  return InferWithRetry(
      values.size(), options_,
      [&values, this](size_t begin, size_t len, PartitionPartial* pp) {
        if (options_.annotate) {
          pp->annotation = std::make_unique<annotate::Annotation>();
        }
        Stopwatch infer_watch;
        std::vector<TypeRef> typed;
        typed.reserve(len);
        for (size_t i = begin; i < begin + len; ++i) {
          typed.push_back(
              inference::InferType(*values[i], pp->annotation.get()));
        }
        pp->infer_seconds = infer_watch.ElapsedSeconds();
        if (telemetry::Enabled()) {
          RecordNanos(JSONSI_HISTOGRAM("map.partition_ns"), pp->infer_seconds);
        }
        FoldSlice(typed.data(), len, options_.collect_stats, pp);
      });
}

Schema SchemaInferencer::InferFromValues(
    const std::vector<json::ValueRef>& values) const {
  Result<Schema> result = TryInferFromValues(values);
  if (!result.ok()) {
    // A persistent worker failure on the infallible entry point: fail fast
    // with a diagnostic instead of the pre-hardening std::terminate.
    std::fprintf(stderr, "jsonsi: inference failed permanently: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

Result<Schema> SchemaInferencer::InferFromJsonLines(
    std::string_view text, json::IngestStats* stats) const {
  std::vector<TypeRef> typed;
  std::unique_ptr<annotate::Annotation> annotation;
  if (options_.annotate) annotation = std::make_unique<annotate::Annotation>();
  Stopwatch ingest_watch;

  if (options_.num_threads <= 1 ||
      text.size() < options_.parallel_ingest_min_bytes) {
    // Serial fused pass: one DirectInferType per line behind the standard
    // degraded-mode line machinery — same policy decisions, same report.
    JSONSI_SPAN("infer.direct");
    json::LineFn fn = [&](std::string_view line) -> Result<bool> {
      // Folds straight into the accumulator: DirectInferType observes a
      // line only after accepting it, so malformed lines leave no trace.
      Result<TypeRef> t = inference::DirectInferType(
          line, options_.ingest.parse, annotation.get());
      if (!t.ok()) return t.status();
      typed.push_back(std::move(t).value());
      return true;
    };
    Status st = json::IngestJsonLines(text, fn, options_.ingest, stats);
    if (!st.ok()) return st;
  } else {
    // Chunk-parallel fused pass: chunk workers type their lines, then the
    // sequential policy replay gives exact serial-reader semantics.
    JSONSI_SPAN("infer.direct.parallel");
    const size_t max_chunks =
        options_.num_threads * std::max<size_t>(1, options_.chunks_per_thread);
    std::vector<json::ChunkSpan> spans = json::SplitJsonLines(text, max_chunks);
    std::vector<inference::TypedChunkOutcome> outcomes(spans.size());
    {
      engine::ThreadPool pool(options_.num_threads);
      for (size_t i = 0; i < spans.size(); ++i) {
        pool.Submit([&text, &spans, &outcomes, i, this] {
          JSONSI_SPAN("ingest.chunk_worker");
          outcomes[i] = inference::InferJsonLinesChunk(
              text.substr(spans[i].begin, spans[i].size()),
              options_.ingest.parse, options_.ingest.max_recorded_errors,
              i == 0, options_.annotate);
        });
      }
      pool.Wait();
      JSONSI_RETURN_IF_ERROR(pool.first_error());
    }
    if (telemetry::Enabled()) {
      JSONSI_COUNTER("pipeline.parallel.chunks").Add(spans.size());
    }
    json::IngestStats local;
    json::IngestStats* out = stats ? stats : &local;
    json::ChunkReplay replay =
        inference::ReplayChunkPolicy(outcomes, options_.ingest, out);
    if (!replay.status.ok()) return replay.status;
    if (annotation) {
      // Fold the eager whole-chunk accumulators in index order. An OK
      // replay keeps every chunk whole (it only stops mid-chunk together
      // with a non-OK status, which returned above).
      size_t merges = 0;
      for (size_t c = 0; c < replay.full_chunks && c < outcomes.size(); ++c) {
        if (outcomes[c].annotation) {
          annotation->MergeFrom(*outcomes[c].annotation);
          ++merges;
        }
      }
      if (telemetry::Enabled()) {
        JSONSI_COUNTER("annotate.chunk_merges").Add(merges);
      }
    }
    typed = inference::TakeIncludedTypes(std::move(outcomes), replay);
  }
  const double ingest_seconds = ingest_watch.ElapsedSeconds();

  // The typed front end: the Map phase already ran, only the fold remains.
  Result<Schema> schema = InferWithRetry(
      typed.size(), options_,
      [&typed, this](size_t begin, size_t len, PartitionPartial* pp) {
        FoldSlice(typed.data() + begin, len, options_.collect_stats, pp);
      });
  if (!schema.ok()) return schema;
  // Parsing and Map are one fused pass on this path; bill it as Map cost.
  schema.value().stats.infer_seconds += ingest_seconds;
  schema.value().annotation = std::move(annotation);
  return schema;
}

Result<Schema> SchemaInferencer::InferFromFile(
    const std::string& path, json::IngestStats* stats) const {
  // Opening (and mapping) retries under the policy: transient I/O errors
  // heal, while deterministic ones (missing file, malformed content under
  // kFail) are classified permanent and fail immediately. Once the source
  // is open, inference proceeds without mid-stream retry — a consumed
  // stream cannot be replayed.
  Result<std::unique_ptr<io::InputSource>> source =
      Status::Internal("not attempted");
  Status st = engine::RunWithRetry(
      [&]() -> Status {
        source = io::OpenInputSource(path, options_.io);
        return source.ok() ? Status::OK() : source.status();
      },
      options_.retry);
  if (!st.ok()) return st;
  return InferFromSource(*source.value(), stats);
}

Result<Schema> SchemaInferencer::InferFromSource(
    io::InputSource& source, json::IngestStats* stats) const {
  if (std::optional<std::string_view> view = source.Contents()) {
    // Memory-backed (mmap): the existing buffer pipelines — serial fused
    // pass or chunk-parallel — run zero-copy on the mapping; the kernel's
    // readahead overlaps the page-ins with inference.
    return InferFromJsonLines(*view, stats);
  }
  if (options_.annotate) {
    // The pump's StreamingInferencer keeps no annotation accumulator
    // (ROADMAP item 3), so non-mapped sources are buffered whole and take
    // the buffer pipeline. File inputs normally map (kAuto) and never get
    // here.
    std::string text;
    std::vector<char> buf(options_.io.buffer_bytes);
    if (std::optional<uint64_t> size = source.SizeBytes()) {
      text.reserve(static_cast<size_t>(*size));
    }
    for (;;) {
      Result<size_t> got = source.Read(buf.data(), buf.size());
      if (!got.ok()) return got.status();
      if (got.value() == 0) break;
      text.append(buf.data(), got.value());
    }
    return InferFromJsonLines(text, stats);
  }

  // Bounded pipeline: the reader overlaps the next read() against the
  // batch being inferred; peak memory is a few pipeline buffers plus the
  // streaming state, independent of input size. Batched == one-shot by
  // the monoid algebra plus the stream-global rate/error baselines.
  StreamingOptions sopts;
  sopts.count_distinct_types = options_.collect_stats;
  sopts.parse = options_.ingest.parse;
  sopts.on_malformed = options_.ingest.on_malformed;
  sopts.max_error_rate = options_.ingest.max_error_rate;
  sopts.min_lines_for_rate = options_.ingest.min_lines_for_rate;
  sopts.max_recorded_errors = options_.ingest.max_recorded_errors;
  StreamingInferencer stream(sopts);
  io::PipelineReader reader(&source, options_.io);
  PumpOptions pump;
  pump.num_threads = options_.num_threads;
  Status st = PumpJsonLines(reader, stream, pump);
  if (stats) *stats = stream.ingest_stats();
  if (!st.ok()) return st;
  return stream.Snapshot();
}

Schema SchemaInferencer::Merge(const Schema& a, const Schema& b) {
  Schema out;
  out.type = fusion::Fuse(a.type ? a.type : Type::Empty(),
                          b.type ? b.type : Type::Empty());
  const SchemaStats& sa = a.stats;
  const SchemaStats& sb = b.stats;
  out.stats.record_count = sa.record_count + sb.record_count;
  if (sa.record_count == 0) {
    out.stats.distinct_type_count = sb.distinct_type_count;
  } else if (sb.record_count == 0) {
    out.stats.distinct_type_count = sa.distinct_type_count;
  } else {
    out.stats.distinct_type_count = 0;  // not derivable from counts alone
  }
  if (sa.record_count == 0) {
    out.stats.min_type_size = sb.min_type_size;
    out.stats.max_type_size = sb.max_type_size;
    out.stats.avg_type_size = sb.avg_type_size;
  } else if (sb.record_count == 0) {
    out.stats.min_type_size = sa.min_type_size;
    out.stats.max_type_size = sa.max_type_size;
    out.stats.avg_type_size = sa.avg_type_size;
  } else {
    out.stats.min_type_size = std::min(sa.min_type_size, sb.min_type_size);
    out.stats.max_type_size = std::max(sa.max_type_size, sb.max_type_size);
    out.stats.avg_type_size =
        (sa.avg_type_size * static_cast<double>(sa.record_count) +
         sb.avg_type_size * static_cast<double>(sb.record_count)) /
        static_cast<double>(out.stats.record_count);
  }
  out.stats.infer_seconds = sa.infer_seconds + sb.infer_seconds;
  out.stats.fuse_seconds = sa.fuse_seconds + sb.fuse_seconds;
  if (a.annotation || b.annotation) {
    // The annotation lattice merges exactly like the types do (the same
    // monoid fold), so the merged schema's statistics are those of the
    // union of the two inputs.
    auto merged = std::make_unique<annotate::Annotation>();
    if (a.annotation) merged->MergeFrom(*a.annotation);
    if (b.annotation) merged->MergeFrom(*b.annotation);
    out.annotation = std::move(merged);
  }
  return out;
}

}  // namespace jsonsi::core
