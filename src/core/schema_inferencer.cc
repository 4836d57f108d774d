#include "core/schema_inferencer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
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

// Everything one parallel worker produces from its slice of the input: the
// slice's partial schema (a thread-local TreeFuser fold), its contribution
// to the Tables 2-5 statistics, and stage timings for the critical-path
// accounting in SchemaStats.
struct PartitionPartial {
  TypeRef partial;
  std::unique_ptr<annotate::Annotation> annotation;
  stats::DistinctTypeSet distinct;
  size_t min_size = 0;
  size_t max_size = 0;
  size_t count = 0;
  double total_size = 0;
  double infer_seconds = 0;
  double fuse_seconds = 0;
};

// The exact pre-parallel pipeline: one inference loop, one TreeFuser fold in
// stream order, no thread pool. num_threads == 1 runs this; the parallel
// path is validated against it (structural identity, Theorems 5.4/5.5).
Status InferSerial(const std::vector<json::ValueRef>& values,
                   const InferenceOptions& options, Schema* schema) {
  JSONSI_SPAN("infer.pipeline");
  schema->stats.record_count = values.size();
  schema->stats.dom_records = values.size();

  // ---- Map phase: per-value type inference (Figure 4). ----
  Stopwatch infer_watch;
  std::unique_ptr<annotate::Annotation> ann;
  if (options.annotate) ann = std::make_unique<annotate::Annotation>();
  std::vector<TypeRef> typed;
  typed.reserve(values.size());
  {
    JSONSI_SPAN("infer.map");
    for (const json::ValueRef& v : values) {
      typed.push_back(inference::InferType(*v, ann.get()));
    }
  }
  if (ann) schema->annotation = std::move(ann);
  schema->stats.infer_seconds = infer_watch.ElapsedSeconds();
  if (telemetry::Enabled()) {
    JSONSI_COUNTER("map.records").Add(values.size());
    JSONSI_COUNTER("map.partitions").Increment();
  }

  // ---- Statistics (Tables 2-5). ----
  if (options.collect_stats && !values.empty()) {
    JSONSI_SPAN("infer.stats");
    stats::DistinctTypeSet distinct;
    size_t min = 0, max = 0;
    double total = 0;
    for (size_t i = 0; i < typed.size(); ++i) {
      distinct.Add(typed[i]);
      size_t s = typed[i]->size();
      if (i == 0) {
        min = max = s;
      } else {
        min = std::min(min, s);
        max = std::max(max, s);
      }
      total += static_cast<double>(s);
    }
    schema->stats.distinct_type_count = distinct.size();
    schema->stats.min_type_size = min;
    schema->stats.max_type_size = max;
    schema->stats.avg_type_size = total / static_cast<double>(typed.size());
  }

  // ---- Reduce phase: associative fusion (Figures 5-6), balanced-tree
  // order (TreeFuser) for asymptotic cheapness on wide schemas. ----
  Stopwatch fuse_watch;
  {
    JSONSI_SPAN("infer.reduce");
    fusion::TreeFuser fuser;
    for (TypeRef& t : typed) fuser.Add(std::move(t));
    schema->type = fuser.Finish();
  }
  schema->stats.fuse_seconds = fuse_watch.ElapsedSeconds();
  if (telemetry::Enabled()) {
    JSONSI_COUNTER("reduce.partials").Increment();
    JSONSI_HISTOGRAM("infer.fused_size")
        .Record(schema->type ? schema->type->size() : 0);
  }
  return Status::OK();
}

// The parallel pipeline: the input is sliced into contiguous index ranges,
// each range runs map + stats + a thread-local TreeFuser fold as ONE pool
// task (no cross-stage barrier, no materialised global type vector), and the
// per-worker partial schemas merge in a log-depth parallel tree-reduce.
// Interning is process-global, so identical record types dedup across
// workers despite the thread-local fusers.
Status InferParallel(const std::vector<json::ValueRef>& values,
                     const InferenceOptions& options, Schema* schema) {
  JSONSI_SPAN("infer.pipeline");
  const size_t n = values.size();
  schema->stats.record_count = n;
  schema->stats.dom_records = n;
  if (n == 0) {
    schema->type = Type::Empty();
    return Status::OK();
  }

  engine::ThreadPool pool(options.num_threads);
  const size_t parts =
      std::max<size_t>(1, std::min(options.num_partitions, n));
  std::vector<PartitionPartial> partials(parts);
  const bool collect = options.collect_stats;
  const bool do_annotate = options.annotate;

  {
    JSONSI_SPAN("infer.map");
    const size_t base = n / parts;
    const size_t extra = n % parts;
    size_t offset = 0;
    for (size_t p = 0; p < parts; ++p) {
      const size_t len = base + (p < extra ? 1 : 0);
      const size_t begin = offset;
      offset += len;
      pool.Submit([&values, &partials, p, begin, len, collect, do_annotate] {
        JSONSI_SPAN("pipeline.worker");
        PartitionPartial& pp = partials[p];
        if (do_annotate) {
          pp.annotation = std::make_unique<annotate::Annotation>();
        }
        Stopwatch infer_watch;
        std::vector<TypeRef> typed;
        typed.reserve(len);
        for (size_t i = begin; i < begin + len; ++i) {
          typed.push_back(
              inference::InferType(*values[i], pp.annotation.get()));
        }
        pp.infer_seconds = infer_watch.ElapsedSeconds();
        if (collect) {
          for (size_t i = 0; i < typed.size(); ++i) {
            pp.distinct.Add(typed[i]);
            size_t s = typed[i]->size();
            if (i == 0) {
              pp.min_size = pp.max_size = s;
            } else {
              pp.min_size = std::min(pp.min_size, s);
              pp.max_size = std::max(pp.max_size, s);
            }
            pp.total_size += static_cast<double>(s);
          }
        }
        Stopwatch fuse_watch;
        fusion::TreeFuser fuser;
        for (TypeRef& t : typed) fuser.Add(std::move(t));
        pp.partial = fuser.Finish();
        pp.fuse_seconds = fuse_watch.ElapsedSeconds();
        pp.count = len;
      });
    }
    pool.Wait();
  }
  JSONSI_RETURN_IF_ERROR(pool.first_error());

  if (do_annotate) {
    // Associativity + commutativity make any merge order exact; index order
    // keeps the fold deterministic anyway.
    auto acc = std::make_unique<annotate::Annotation>();
    for (PartitionPartial& pp : partials) {
      if (pp.annotation) acc->MergeFrom(*pp.annotation);
    }
    schema->annotation = std::move(acc);
  }

  double max_infer = 0, max_fuse = 0;
  for (const PartitionPartial& pp : partials) {
    max_infer = std::max(max_infer, pp.infer_seconds);
    max_fuse = std::max(max_fuse, pp.fuse_seconds);
  }
  if (collect) {
    stats::DistinctTypeSet distinct;
    size_t min = 0, max = 0, count = 0;
    double total = 0;
    for (PartitionPartial& pp : partials) {
      if (pp.count == 0) continue;
      distinct.Merge(pp.distinct);
      min = (count == 0) ? pp.min_size : std::min(min, pp.min_size);
      max = std::max(max, pp.max_size);
      total += pp.total_size;
      count += pp.count;
    }
    schema->stats.distinct_type_count = distinct.size();
    schema->stats.min_type_size = min;
    schema->stats.max_type_size = max;
    schema->stats.avg_type_size =
        count ? total / static_cast<double>(count) : 0.0;
  }

  Stopwatch reduce_watch;
  size_t rounds = 0;
  {
    JSONSI_SPAN("infer.reduce");
    std::vector<TypeRef> types;
    types.reserve(parts);
    for (PartitionPartial& pp : partials) {
      types.push_back(std::move(pp.partial));
    }
    schema->type = engine::ParallelTreeReduce(
        pool, std::move(types), Type::Empty(),
        [](const TypeRef& a, const TypeRef& b) { return fusion::Fuse(a, b); },
        &rounds);
  }
  JSONSI_RETURN_IF_ERROR(pool.first_error());
  schema->stats.infer_seconds = max_infer;
  schema->stats.fuse_seconds = max_fuse + reduce_watch.ElapsedSeconds();

  if (telemetry::Enabled()) {
    JSONSI_COUNTER("map.records").Add(n);
    JSONSI_COUNTER("map.partitions").Add(parts);
    JSONSI_COUNTER("reduce.partials").Add(parts);
    JSONSI_COUNTER("pipeline.parallel.runs").Increment();
    JSONSI_COUNTER("pipeline.parallel.records").Add(n);
    JSONSI_COUNTER("pipeline.parallel.partitions").Add(parts);
    JSONSI_COUNTER("pipeline.parallel.reduce_rounds").Add(rounds);
    for (const PartitionPartial& pp : partials) {
      JSONSI_HISTOGRAM("map.partition_ns")
          .Record(pp.infer_seconds > 0
                      ? static_cast<uint64_t>(pp.infer_seconds * 1e9)
                      : 0);
      JSONSI_HISTOGRAM("reduce.partition_ns")
          .Record(pp.fuse_seconds > 0
                      ? static_cast<uint64_t>(pp.fuse_seconds * 1e9)
                      : 0);
    }
    JSONSI_HISTOGRAM("infer.fused_size")
        .Record(schema->type ? schema->type->size() : 0);
  }
  return Status::OK();
}

// ---- Typed pipeline tail: the DOM-free ingestion path already ran the
// Map phase (DirectInferType per line), so only statistics and the Reduce
// phase remain. Both variants read `typed` without consuming it — retry
// attempts re-run over the intact vector. ----

Status InferSerialTyped(const std::vector<TypeRef>& typed,
                        const InferenceOptions& options, Schema* schema) {
  JSONSI_SPAN("infer.pipeline");
  schema->stats.record_count = typed.size();
  schema->stats.direct_records = typed.size();

  if (options.collect_stats && !typed.empty()) {
    JSONSI_SPAN("infer.stats");
    stats::DistinctTypeSet distinct;
    size_t min = 0, max = 0;
    double total = 0;
    for (size_t i = 0; i < typed.size(); ++i) {
      distinct.Add(typed[i]);
      size_t s = typed[i]->size();
      if (i == 0) {
        min = max = s;
      } else {
        min = std::min(min, s);
        max = std::max(max, s);
      }
      total += static_cast<double>(s);
    }
    schema->stats.distinct_type_count = distinct.size();
    schema->stats.min_type_size = min;
    schema->stats.max_type_size = max;
    schema->stats.avg_type_size = total / static_cast<double>(typed.size());
  }

  Stopwatch fuse_watch;
  {
    JSONSI_SPAN("infer.reduce");
    fusion::TreeFuser fuser;
    for (const TypeRef& t : typed) fuser.Add(t);
    schema->type = fuser.Finish();
  }
  schema->stats.fuse_seconds = fuse_watch.ElapsedSeconds();
  if (telemetry::Enabled()) {
    JSONSI_COUNTER("map.records").Add(typed.size());
    JSONSI_COUNTER("map.partitions").Increment();
    JSONSI_COUNTER("reduce.partials").Increment();
    JSONSI_HISTOGRAM("infer.fused_size")
        .Record(schema->type ? schema->type->size() : 0);
  }
  return Status::OK();
}

Status InferParallelTyped(const std::vector<TypeRef>& typed,
                          const InferenceOptions& options, Schema* schema) {
  JSONSI_SPAN("infer.pipeline");
  const size_t n = typed.size();
  schema->stats.record_count = n;
  schema->stats.direct_records = n;
  if (n == 0) {
    schema->type = Type::Empty();
    return Status::OK();
  }

  engine::ThreadPool pool(options.num_threads);
  const size_t parts =
      std::max<size_t>(1, std::min(options.num_partitions, n));
  std::vector<PartitionPartial> partials(parts);
  const bool collect = options.collect_stats;

  {
    JSONSI_SPAN("infer.map");
    const size_t base = n / parts;
    const size_t extra = n % parts;
    size_t offset = 0;
    for (size_t p = 0; p < parts; ++p) {
      const size_t len = base + (p < extra ? 1 : 0);
      const size_t begin = offset;
      offset += len;
      pool.Submit([&typed, &partials, p, begin, len, collect] {
        JSONSI_SPAN("pipeline.worker");
        PartitionPartial& pp = partials[p];
        if (collect) {
          for (size_t i = begin; i < begin + len; ++i) {
            pp.distinct.Add(typed[i]);
            size_t s = typed[i]->size();
            if (i == begin) {
              pp.min_size = pp.max_size = s;
            } else {
              pp.min_size = std::min(pp.min_size, s);
              pp.max_size = std::max(pp.max_size, s);
            }
            pp.total_size += static_cast<double>(s);
          }
        }
        Stopwatch fuse_watch;
        fusion::TreeFuser fuser;
        for (size_t i = begin; i < begin + len; ++i) fuser.Add(typed[i]);
        pp.partial = fuser.Finish();
        pp.fuse_seconds = fuse_watch.ElapsedSeconds();
        pp.count = len;
      });
    }
    pool.Wait();
  }
  JSONSI_RETURN_IF_ERROR(pool.first_error());

  double max_fuse = 0;
  for (const PartitionPartial& pp : partials) {
    max_fuse = std::max(max_fuse, pp.fuse_seconds);
  }
  if (collect) {
    stats::DistinctTypeSet distinct;
    size_t min = 0, max = 0, count = 0;
    double total = 0;
    for (PartitionPartial& pp : partials) {
      if (pp.count == 0) continue;
      distinct.Merge(pp.distinct);
      min = (count == 0) ? pp.min_size : std::min(min, pp.min_size);
      max = std::max(max, pp.max_size);
      total += pp.total_size;
      count += pp.count;
    }
    schema->stats.distinct_type_count = distinct.size();
    schema->stats.min_type_size = min;
    schema->stats.max_type_size = max;
    schema->stats.avg_type_size =
        count ? total / static_cast<double>(count) : 0.0;
  }

  Stopwatch reduce_watch;
  size_t rounds = 0;
  {
    JSONSI_SPAN("infer.reduce");
    std::vector<TypeRef> types;
    types.reserve(parts);
    for (PartitionPartial& pp : partials) {
      types.push_back(std::move(pp.partial));
    }
    schema->type = engine::ParallelTreeReduce(
        pool, std::move(types), Type::Empty(),
        [](const TypeRef& a, const TypeRef& b) { return fusion::Fuse(a, b); },
        &rounds);
  }
  JSONSI_RETURN_IF_ERROR(pool.first_error());
  // Map cost lives in the fused ingestion pass; the caller adds it.
  schema->stats.fuse_seconds = max_fuse + reduce_watch.ElapsedSeconds();

  if (telemetry::Enabled()) {
    JSONSI_COUNTER("map.records").Add(n);
    JSONSI_COUNTER("map.partitions").Add(parts);
    JSONSI_COUNTER("reduce.partials").Add(parts);
    JSONSI_COUNTER("pipeline.parallel.runs").Increment();
    JSONSI_COUNTER("pipeline.parallel.records").Add(n);
    JSONSI_COUNTER("pipeline.parallel.partitions").Add(parts);
    JSONSI_COUNTER("pipeline.parallel.reduce_rounds").Add(rounds);
    for (const PartitionPartial& pp : partials) {
      JSONSI_HISTOGRAM("reduce.partition_ns")
          .Record(pp.fuse_seconds > 0
                      ? static_cast<uint64_t>(pp.fuse_seconds * 1e9)
                      : 0);
    }
    JSONSI_HISTOGRAM("infer.fused_size")
        .Record(schema->type ? schema->type->size() : 0);
  }
  return Status::OK();
}

// Retrying driver over the typed tail — the typed analogue of
// TryInferFromValues, sound for the same algebraic reasons.
Result<Schema> TryInferTyped(const std::vector<TypeRef>& typed,
                             const InferenceOptions& options) {
  Schema schema;
  Status st = engine::RunWithRetry(
      [&]() -> Status {
        schema = Schema{};
        return options.num_threads <= 1
                   ? InferSerialTyped(typed, options, &schema)
                   : InferParallelTyped(typed, options, &schema);
      },
      options.retry);
  if (!st.ok()) return st;
  return schema;
}

}  // namespace

Result<Schema> SchemaInferencer::TryInferFromValues(
    const std::vector<json::ValueRef>& values) const {
  Schema schema;
  // The whole pipeline is a pure function of `values` (inference is
  // deterministic, fusion associative/commutative), so re-running it after a
  // transient worker failure is sound — the retry-safety corollary of
  // Theorems 5.4/5.5. Each parallel attempt runs on a fresh pool.
  Status st = engine::RunWithRetry(
      [&]() -> Status {
        schema = Schema{};
        return options_.num_threads <= 1
                   ? InferSerial(values, options_, &schema)
                   : InferParallel(values, options_, &schema);
      },
      options_.retry);
  if (!st.ok()) return st;
  return schema;
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

Result<Schema> SchemaInferencer::InferDirectFromJsonLines(
    std::string_view text, json::IngestStats* stats) const {
  std::vector<TypeRef> typed;
  std::unique_ptr<annotate::Annotation> annotation;
  if (options_.annotate) annotation = std::make_unique<annotate::Annotation>();
  double ingest_seconds = 0;

  if (options_.num_threads <= 1 ||
      text.size() < options_.parallel_ingest_min_bytes) {
    // Serial fused pass: one DirectInferType per line behind the standard
    // degraded-mode line machinery — same policy decisions, same report.
    Stopwatch ingest_watch;
    {
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
    }
    ingest_seconds = ingest_watch.ElapsedSeconds();
  } else {
    // Chunk-parallel fused pass: DOM-free chunk workers, then the shared
    // sequential policy replay for exact serial-reader semantics.
    Stopwatch ingest_watch;
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
      // Fold the eager whole-chunk accumulators the replay kept in full,
      // in index order. The chunk the replay aborted inside (if any) is
      // re-scanned over just its included prefix — its eager fold saw
      // excluded records and cannot be used.
      size_t merges = 0;
      for (size_t c = 0; c < replay.full_chunks && c < outcomes.size(); ++c) {
        if (outcomes[c].annotation) {
          annotation->MergeFrom(*outcomes[c].annotation);
          ++merges;
        }
      }
      if (replay.partial_records > 0 && replay.full_chunks < outcomes.size()) {
        const json::ChunkSpan& span = spans[replay.full_chunks];
        inference::AnnotateChunkPrefix(text.substr(span.begin, span.size()),
                                       options_.ingest.parse,
                                       replay.full_chunks == 0,
                                       replay.partial_records,
                                       annotation.get());
        ++merges;
      }
      if (telemetry::Enabled()) {
        JSONSI_COUNTER("annotate.chunk_merges").Add(merges);
      }
    }
    typed = inference::TakeIncludedTypes(std::move(outcomes), replay);
    ingest_seconds = ingest_watch.ElapsedSeconds();
  }

  Result<Schema> schema = TryInferTyped(typed, options_);
  if (!schema.ok()) return schema;
  // Parsing and Map are one fused pass on this path; bill it as Map cost.
  schema.value().stats.infer_seconds += ingest_seconds;
  schema.value().annotation = std::move(annotation);
  return schema;
}

Result<Schema> SchemaInferencer::InferFromJsonLines(
    std::string_view text, json::IngestStats* stats) const {
  if (options_.direct_infer) return InferDirectFromJsonLines(text, stats);
  if (options_.num_threads <= 1 ||
      text.size() < options_.parallel_ingest_min_bytes) {
    Result<std::vector<json::ValueRef>> values =
        json::ParseJsonLines(text, options_.ingest, stats);
    if (!values.ok()) return values.status();
    return TryInferFromValues(values.value());
  }

  // Chunk-parallel ingestion: cut on line boundaries, parse chunks on the
  // pool, then replay the malformed-line policy sequentially so degraded
  // mode behaves byte-for-byte like the serial reader (jsonl_chunk.h).
  std::vector<json::ValueRef> values;
  {
    JSONSI_SPAN("ingest.parallel");
    const size_t max_chunks =
        options_.num_threads * std::max<size_t>(1, options_.chunks_per_thread);
    std::vector<json::ChunkSpan> spans =
        json::SplitJsonLines(text, max_chunks);
    std::vector<json::ChunkOutcome> outcomes(spans.size());
    {
      engine::ThreadPool pool(options_.num_threads);
      for (size_t i = 0; i < spans.size(); ++i) {
        pool.Submit([&text, &spans, &outcomes, i, this] {
          JSONSI_SPAN("ingest.chunk_worker");
          outcomes[i] = json::ParseJsonLinesChunk(
              text.substr(spans[i].begin, spans[i].size()),
              options_.ingest.parse, options_.ingest.max_recorded_errors,
              i == 0);
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
        json::ReplayChunkPolicy(outcomes, options_.ingest, out);
    if (!replay.status.ok()) return replay.status;
    values = json::TakeIncludedValues(std::move(outcomes), replay);
  }
  return TryInferFromValues(values);
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
    // The annotation chunk merge re-scans aborted-chunk prefixes, which
    // needs random access to the whole buffer: non-mapped sources are
    // buffered first. File inputs normally map (kAuto) and never get here.
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
  sopts.direct_infer = options_.direct_infer;
  StreamingInferencer stream(sopts);
  io::PipelineReader reader(&source, options_.io);
  PumpOptions pump;
  pump.num_threads = options_.num_threads;
  Status st = PumpJsonLines(reader, stream, pump);
  if (stats) *stats = stream.ingest_stats();
  if (!st.ok()) return st;
  Schema schema = stream.Snapshot();
  // Snapshot() does not know which pipeline typed the records; keep the
  // --stats ingestion row self-describing.
  (options_.direct_infer ? schema.stats.direct_records
                         : schema.stats.dom_records) = stream.record_count();
  return schema;
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
  out.stats.direct_records = sa.direct_records + sb.direct_records;
  out.stats.dom_records = sa.dom_records + sb.dom_records;
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
