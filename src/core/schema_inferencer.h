// SchemaInferencer — the library's public entry point.
//
// Runs the paper's two-phase pipeline over a collection of JSON values:
//
//   Map    each value -> its isomorphic type        (inference::InferType)
//   Reduce fuse all types into one compact schema   (fusion::Fuse)
//
// executed on the partitioned map/reduce engine, with the statistics of
// Tables 2-5 gathered along the way. Because Fuse is associative and
// commutative, schemas are also *mergeable after the fact*: Merge() fuses
// two schemas of disjoint batches into the schema of their union, which is
// the incremental-maintenance story of Section 1 (new records, or re-typed
// partitions, fold into an existing schema without reprocessing the rest).
//
// Parallel end-to-end execution: with num_threads > 1 every stage runs on
// the thread pool —
//
//   * text input is cut into ~4x-threads chunks on line boundaries
//     (json/jsonl_chunk.h) and typed chunk-parallel without a DOM
//     (inference/direct_infer.h), with the degraded-mode
//     MalformedLinePolicy replayed to exact serial semantics;
//   * the Map phase runs one task per partition, each owning a thread-local
//     TreeFuser that folds its slice as it is typed (interning is process-
//     global, so structural duplicates dedup across workers);
//   * the per-partition partial schemas merge in a parallel pairwise
//     tree-reduce (engine/parallel_reduce.h), log-depth instead of a serial
//     fold.
//
// num_threads == 1 bypasses the pool entirely and runs the exact serial
// pipeline (single TreeFuser fold in stream order); by associativity and
// commutativity of Fuse (Theorems 5.4/5.5) the parallel schema is
// structurally identical to the serial one for every thread/partition/chunk
// count — asserted by tests/parallel_pipeline_test.cc.
//
// Fault tolerance: the same algebraic structure makes every stage re-runnable
// — recomputing a partition's types or partial schema reproduces it exactly
// — so the driver executes the parallel stages under a retry policy
// (engine/retry.h). A worker task that throws no longer brings down the
// process: the thread pool converts it to a Status, and the run either
// retries or reports the failure. Text/file input can run in degraded mode
// (skip malformed lines, with an ingestion report) via json::IngestOptions.
//
// Typical use:
//
//   jsonsi::core::SchemaInferencer inferencer;           // default options
//   auto schema = inferencer.InferFromValues(values);    // or ...FromFile
//   std::cout << schema.ToString() << "\n";
//   schema = SchemaInferencer::Merge(schema, later_batch_schema);

#ifndef JSONSI_CORE_SCHEMA_INFERENCER_H_
#define JSONSI_CORE_SCHEMA_INFERENCER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "annotate/annotation.h"
#include "engine/retry.h"
#include "io/input_source.h"
#include "json/jsonl.h"
#include "json/value.h"
#include "support/status.h"
#include "types/type.h"

namespace jsonsi::core {

/// Pipeline configuration.
struct InferenceOptions {
  /// Worker threads for the map/reduce engine (0 = hardware concurrency).
  size_t num_threads = 0;
  /// Input partitions (Spark's parallelism knob). 0 = one per thread.
  size_t num_partitions = 0;
  /// Also gather distinct-type statistics (Tables 2-5). Costs one hash-set
  /// insert per record; disable for pure schema extraction.
  bool collect_stats = true;
  /// Retry policy for the parallel stages and for file reads. The defaults
  /// retry transient failures (worker exceptions, I/O hiccups) twice with
  /// jittered exponential backoff; deterministic input errors (parse,
  /// not-found) are never retried.
  engine::RetryPolicy retry;
  /// Malformed-line handling for the text/file entry points.
  json::IngestOptions ingest;
  /// Text inputs at least this large are ingested chunk-parallel when
  /// num_threads > 1 (below it, chunking overhead beats the win). Tests set
  /// 0 to force the parallel path on tiny inputs.
  size_t parallel_ingest_min_bytes = 1 << 16;
  /// Ingestion chunks created per worker thread (load-balancing slack for
  /// uneven line lengths).
  size_t chunks_per_thread = 4;
  /// Collect the Annotation monoid lattice (annotate/annotation.h) beside
  /// the schema: per-position counts, numeric/string ranges, distinct-value
  /// samples, cardinality sketches and record-shape evidence for
  /// tagged-union refinement. Off by default — the un-annotated hot path
  /// keeps its throughput; `jsi infer --annotate` opts in. The annotation
  /// is exactly identical across serial, parallel and chunk-parallel runs
  /// (every component is an associative + commutative merge).
  bool annotate = false;
  /// Input-source selection and pipeline buffering for the file/stdin
  /// entry points (src/io/). kAuto maps regular files (zero-copy, the
  /// buffer pipelines run on the page cache) and streams pipes; kRead and
  /// kStream pump bounded batches through a StreamingInferencer, which is
  /// what makes files larger than RAM inferrable. Every mode produces
  /// byte-identical schemas, errors and IngestStats.
  io::IoOptions io;
};

/// Statistics gathered by one inference run (or accumulated by Merge).
struct SchemaStats {
  size_t record_count = 0;
  size_t distinct_type_count = 0;   // 0 when collect_stats was off
  size_t min_type_size = 0;
  size_t max_type_size = 0;
  double avg_type_size = 0;         // mean over records (not distinct types)
  /// Map-phase cost. Serial: wall-clock of the inference loop. Parallel:
  /// the critical path — the slowest worker's inference time. For text
  /// input parsing and Map are one fused pass, so this is the ingestion
  /// wall-clock.
  double infer_seconds = 0;
  /// Reduce-phase cost. Serial: wall-clock of the fold. Parallel: slowest
  /// worker's partition fold plus the tree-reduce wall-clock.
  double fuse_seconds = 0;
};

/// An inferred schema: the fused type plus run statistics.
struct Schema {
  types::TypeRef type;
  SchemaStats stats;
  /// Value statistics keyed by schema position (null unless
  /// InferenceOptions::annotate was set). Shared, not owned: Merge() and
  /// copies of the schema alias the same immutable tree.
  std::shared_ptr<const annotate::Annotation> annotation;

  /// Renders the type in the paper's notation (multiline when `pretty`).
  std::string ToString(bool pretty = false) const;
};

/// The two-phase Map/Reduce schema-inference pipeline.
class SchemaInferencer {
 public:
  explicit SchemaInferencer(const InferenceOptions& options = {});

  /// Infers the schema of an in-memory collection. Infallible for
  /// well-behaved inputs; if a worker failure persists through the retry
  /// policy the process aborts with a diagnostic (the historical behaviour
  /// was an unceremonious std::terminate from the worker thread). Callers
  /// that want the error instead use TryInferFromValues.
  Schema InferFromValues(const std::vector<json::ValueRef>& values) const;

  /// As InferFromValues, but surfaces persistent worker failures as a
  /// Status after exhausting the retry policy.
  Result<Schema> TryInferFromValues(
      const std::vector<json::ValueRef>& values) const;

  /// Infers JSON-Lines text (per options().ingest) DOM-free: each line is
  /// typed straight off the token stream (inference/direct_infer.h), serial
  /// or chunk-parallel, then reduced like InferFromValues. Schema, errors
  /// and `stats` (the ingestion report, when provided) equal those of
  /// json::ParseJsonLines followed by InferFromValues.
  Result<Schema> InferFromJsonLines(std::string_view text,
                                    json::IngestStats* stats = nullptr) const;

  /// Reads a JSON-Lines file (per options().ingest, under the retry policy
  /// for transient I/O), then infers. The source is selected by
  /// options().io: memory-backed sources run the zero-copy buffer
  /// pipelines; others stream through bounded pipeline batches
  /// (constant-memory, identical results). "-" reads stdin.
  Result<Schema> InferFromFile(const std::string& path,
                               json::IngestStats* stats = nullptr) const;

  /// Infers from an already-opened input source — the file/stdin tail of
  /// InferFromFile, usable directly for custom sources. Memory-backed
  /// sources (Contents()) take the zero-copy path; everything else pumps
  /// bounded batches through a StreamingInferencer (annotate falls back to
  /// buffering: the annotation chunk merge needs random access).
  Result<Schema> InferFromSource(io::InputSource& source,
                                 json::IngestStats* stats = nullptr) const;

  /// Fuses two schemas into the schema of the union of their inputs.
  /// Associativity of Fuse makes this exact, not approximate. Distinct-type
  /// counts cannot be combined without the underlying sets, so the merged
  /// count is 0 unless one side is empty; size statistics merge exactly.
  static Schema Merge(const Schema& a, const Schema& b);

  const InferenceOptions& options() const { return options_; }

 private:
  InferenceOptions options_;
};

}  // namespace jsonsi::core

#endif  // JSONSI_CORE_SCHEMA_INFERENCER_H_
