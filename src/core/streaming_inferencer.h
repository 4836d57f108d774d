// Push-based streaming schema inference.
//
// SchemaInferencer (schema_inferencer.h) is the batch pipeline; this is the
// unbounded-feed counterpart the paper's incremental story calls for:
// records are pushed one at a time (or as raw JSON-Lines text), the running
// schema is maintained in balanced-tree fusion order (O(log n) memory), and
// a consistent snapshot — schema + statistics — can be taken at any moment
// without stopping ingestion. Snapshots are exact: by associativity, the
// snapshot schema equals the batch schema of everything pushed so far.
//
// Distinct-type counting (hash-based, 8 bytes per distinct type) can be
// switched off.
//
// Text ingestion is DOM-free: each line is typed straight off the token
// stream (inference/direct_infer.h), serially or chunk-parallel; the
// snapshot equals that of AddValue over json::ParseJsonLines of the same
// text. It runs in degraded mode on request: a MalformedLinePolicy
// decides whether a bad line aborts the stream, is skipped, or is skipped
// until bad lines exceed a tolerated rate, and ingest_stats() reports what
// was read, skipped, and where the first errors were.

#ifndef JSONSI_CORE_STREAMING_INFERENCER_H_
#define JSONSI_CORE_STREAMING_INFERENCER_H_

#include <cstdint>
#include <string_view>
#include <unordered_set>

#include "core/schema_inferencer.h"
#include "fusion/tree_fuser.h"
#include "json/jsonl.h"
#include "json/value.h"
#include "stats/type_stats.h"
#include "support/status.h"
#include "types/type.h"

namespace jsonsi::core {

/// Streaming configuration.
struct StreamingOptions {
  /// Track the number of distinct inferred types (Tables 2-5 metric).
  bool count_distinct_types = true;
  /// Per-document parser budgets, applied identically by AddJson and the
  /// text paths, serial and chunk-parallel: `max_depth` caps nesting,
  /// `max_document_bytes` caps line size (0 = unlimited). A document over
  /// either budget is a malformed line under `on_malformed` — degraded-mode
  /// streams skip it and keep going instead of aborting.
  json::ParseOptions parse;
  /// Soft watermark (bytes, 0 = unlimited) over the inferencer's resident
  /// auxiliary state: the distinct-type hash set, the TreeFuser dedup
  /// buffer, and the process-global interner / fuse-cache tables. When the
  /// estimate crosses the watermark, ingestion keeps going but stops
  /// growing: the dedup buffer is flushed into the O(log n) fusion slots,
  /// the distinct-type set stops admitting new hashes (the count becomes a
  /// lower bound), and the global caches are cleared (identity-preserving —
  /// they are pure accelerators). The schema itself is never dropped.
  size_t soft_memory_limit_bytes = 0;
  /// Degraded-mode policy for AddJson/AddJsonLines; see json/jsonl.h.
  json::MalformedLinePolicy on_malformed = json::MalformedLinePolicy::kFail;
  /// kFailAboveRate knobs (same semantics as json::IngestOptions).
  double max_error_rate = 0.01;
  uint64_t min_lines_for_rate = 100;
  size_t max_recorded_errors = 8;
};

/// Accumulates a schema over a pushed stream of records.
class StreamingInferencer {
 public:
  explicit StreamingInferencer(const StreamingOptions& options = {});

  /// Pushes one already-parsed record.
  void AddValue(const json::ValueRef& value);

  /// Parses and pushes one JSON document. Parse errors are handled per the
  /// malformed-line policy: kFail propagates, kSkip records and continues,
  /// kFailAboveRate records and fails once the tolerated rate is exceeded.
  Status AddJson(std::string_view json_text);

  /// Types and pushes a whole JSON-Lines buffer (blank lines skipped,
  /// CRLF/BOM tolerated, zero-copy line slicing). Chunks may be fed
  /// repeatedly; ingest_stats() accumulates across calls with coherent
  /// line numbers. Passing `end_of_stream = false` marks the buffer as an
  /// interior batch of a longer stream: the end-of-read rate validation is
  /// deferred until a final batch (or FinishStream()) closes the stream,
  /// so a batched feed aborts exactly where a one-shot read would.
  Status AddJsonLines(std::string_view text, bool end_of_stream = true);

  /// As AddJsonLines, but types the buffer chunk-parallel on `num_threads`
  /// workers (0 = hardware concurrency; <= 1 falls back to the serial
  /// method). Exactly equivalent to AddJsonLines — the degraded-mode policy
  /// is replayed against the cumulative stream (rate_baseline =
  /// ingest_stats()), and the snapshot schema is structurally identical by
  /// associativity.
  Status AddJsonLinesParallel(std::string_view text, size_t num_threads = 0,
                              bool end_of_stream = true);

  /// Closes a stream fed with `end_of_stream = false` batches: runs the
  /// deferred end-of-stream rate validation against the cumulative stream.
  /// No-op (OK) for other policies or when nothing was deferred.
  Status FinishStream();

  /// Merges another streaming inferencer (e.g. one per shard) into this one.
  /// Exact, by associativity/commutativity of fusion.
  /// Distinct-type counts merge exactly (hash-set union).
  void Merge(const StreamingInferencer& other);

  /// Consistent snapshot of the current schema + statistics. O(log n) fuse
  /// work; ingestion may continue afterwards.
  Schema Snapshot() const;

  /// Records successfully ingested so far.
  uint64_t record_count() const { return sizes_.count; }
  /// Text inputs rejected so far (only grows under kSkip/kFailAboveRate).
  uint64_t malformed_count() const { return ingest_stats_.malformed_lines; }

  /// Cumulative text-ingestion report (AddJson + AddJsonLines).
  /// `ingest_stats().bytes_consumed` is the stream's exact resume offset —
  /// the byte just past the last fully-processed line — and is what a
  /// checkpoint records as the position to restart reading from.
  const json::IngestStats& ingest_stats() const { return ingest_stats_; }

  /// The streaming configuration this inferencer was built with.
  const StreamingOptions& options() const { return options_; }

  /// True once the soft memory watermark fired (see
  /// StreamingOptions::soft_memory_limit_bytes); the distinct-type count is
  /// a lower bound from then on.
  bool memory_degraded() const { return memory_degraded_; }

 private:
  // Crash-safe snapshot/restore of the full stream state (core/checkpoint.h
  // owns the on-disk format; it reads and writes the private fields below).
  friend Result<std::string> SerializeCheckpoint(
      const StreamingInferencer& inferencer);
  friend Status RestoreCheckpoint(std::string_view text,
                                  StreamingInferencer* inferencer);

  /// Line-machinery options for one text batch: the streaming policy, with
  /// the cumulative report as rate baseline and BOM/continuation state.
  json::IngestOptions BatchIngestOptions(bool end_of_stream) const;
  /// Folds one inferred type into the running schema and statistics — the
  /// shared tail of AddValue and the serial text path.
  void AddType(types::TypeRef type);
  /// Mirrors the cumulative ingestion report into stream.* gauges (no-op
  /// while telemetry is disabled).
  void PublishIngestTelemetry() const;
  /// Rough byte estimate of the resident auxiliary state the soft watermark
  /// governs (hash set, dedup buffer, global caches).
  size_t EstimateAuxiliaryMemory() const;
  /// Checks the soft watermark and sheds state once when it is crossed.
  void EnforceMemoryBudget();

  StreamingOptions options_;
  fusion::TreeFuser fuser_;
  std::unordered_set<uint64_t> distinct_hashes_;
  json::IngestStats ingest_stats_;
  // Running size stats over inferred types; `count` is the record count.
  stats::SizeAccumulator sizes_;
  // Sticky soft-watermark latch: once crossed, the distinct-type set stops
  // growing and the dedup buffer stays flushed.
  bool memory_degraded_ = false;
};

}  // namespace jsonsi::core

#endif  // JSONSI_CORE_STREAMING_INFERENCER_H_
