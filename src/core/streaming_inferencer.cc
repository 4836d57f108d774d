#include "core/streaming_inferencer.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/thread_pool.h"
#include "fusion/fuse_cache.h"
#include "inference/direct_infer.h"
#include "inference/infer.h"
#include "json/jsonl_chunk.h"
#include "json/parser.h"
#include "telemetry/telemetry.h"
#include "types/interner.h"

namespace jsonsi::core {

StreamingInferencer::StreamingInferencer(const StreamingOptions& options)
    : options_(options) {}

void StreamingInferencer::AddValue(const json::ValueRef& value) {
  AddType(inference::InferType(*value));
}

void StreamingInferencer::AddType(types::TypeRef type) {
  // Once the watermark fired the distinct-type set is frozen: admitting new
  // hashes is what grows it, so the count becomes a lower bound.
  if (options_.count_distinct_types && !memory_degraded_) {
    distinct_hashes_.insert(type->hash());
  }
  sizes_.Add(type->size());
  fuser_.Add(std::move(type));
  JSONSI_COUNTER("stream.records").Increment();
  // Cheap periodic check; the estimate walks no types, so even every record
  // would be affordable, but 512 keeps it entirely off the hot path.
  if ((sizes_.count & 511) == 0) EnforceMemoryBudget();
}

size_t StreamingInferencer::EstimateAuxiliaryMemory() const {
  // Rough, monotone accounting — a soft watermark needs the right order of
  // magnitude, not malloc truth. Per-entry costs approximate libstdc++ node
  // + bucket overhead; types themselves are shared (interned), so containers
  // are charged shallow ownership only.
  size_t bytes = distinct_hashes_.size() * 48;       // 8-byte hash + node
  bytes += fuser_.pending_distinct() * 96;           // (type, count) map node
  bytes += fuser_.slots().capacity() * sizeof(types::TypeRef);
  bytes += types::TypeInterner::Global().stats().size * 96;
  bytes += fusion::FuseCache::Global().stats().size * 128;
  return bytes;
}

void StreamingInferencer::EnforceMemoryBudget() {
  if (options_.soft_memory_limit_bytes == 0) return;
  if (EstimateAuxiliaryMemory() <= options_.soft_memory_limit_bytes) return;
  // Crossed: shed what can be shed without touching the schema. The dedup
  // buffer folds into the O(log n) slots (same reduction result), and the
  // global accelerator tables are pure caches — clearing them only costs
  // future hit rate. The frozen distinct-hash set is released outright; its
  // size() stays meaningful as a lower bound via stats, so keep the set but
  // stop growing it (AddType checks memory_degraded_).
  fuser_.ShrinkToSlots();
  types::TypeInterner::Global().Clear();
  fusion::FuseCache::Global().Clear();
  if (!memory_degraded_) {
    memory_degraded_ = true;
    JSONSI_COUNTER("stream.memory_degraded").Increment();
  }
  JSONSI_COUNTER("stream.memory_sheds").Increment();
}

void StreamingInferencer::PublishIngestTelemetry() const {
  if (!telemetry::Enabled()) return;
  // Cumulative levels, not deltas: gauges mirror the ingest_stats() report
  // so an exporter snapshot always shows the stream totals, however the
  // input was batched.
  JSONSI_GAUGE("stream.lines_read")
      .Set(static_cast<int64_t>(ingest_stats_.lines_read));
  JSONSI_GAUGE("stream.malformed_lines")
      .Set(static_cast<int64_t>(ingest_stats_.malformed_lines));
}

Status StreamingInferencer::AddJson(std::string_view json_text) {
  // One document = one logical line of the cumulative ingestion report.
  ++ingest_stats_.lines_read;
  ingest_stats_.bytes_read += json_text.size();
  Result<json::ValueRef> value = json::Parse(json_text, options_.parse);
  if (value.ok()) {
    ++ingest_stats_.records;
    ingest_stats_.bytes_consumed = ingest_stats_.bytes_read;
    AddValue(value.value());
    return Status::OK();
  }

  ++ingest_stats_.malformed_lines;
  JSONSI_COUNTER("stream.malformed_documents").Increment();
  PublishIngestTelemetry();
  if (ingest_stats_.errors.size() < options_.max_recorded_errors) {
    ingest_stats_.errors.push_back(json::IngestError{
        ingest_stats_.lines_read, 0, value.status().message()});
  }
  switch (options_.on_malformed) {
    case json::MalformedLinePolicy::kFail:
      return value.status();
    case json::MalformedLinePolicy::kSkip:
      ingest_stats_.bytes_consumed = ingest_stats_.bytes_read;
      return Status::OK();
    case json::MalformedLinePolicy::kFailAboveRate: {
      uint64_t non_blank =
          ingest_stats_.records + ingest_stats_.malformed_lines;
      if (non_blank >= options_.min_lines_for_rate &&
          static_cast<double>(ingest_stats_.malformed_lines) >
              options_.max_error_rate * static_cast<double>(non_blank)) {
        return Status::ParseError(
            "malformed-document rate " +
            std::to_string(ingest_stats_.malformed_lines) + "/" +
            std::to_string(non_blank) + " exceeds tolerated rate");
      }
      ingest_stats_.bytes_consumed = ingest_stats_.bytes_read;
      return Status::OK();
    }
  }
  return Status::OK();
}

json::IngestOptions StreamingInferencer::BatchIngestOptions(
    bool end_of_stream) const {
  json::IngestOptions ingest;
  ingest.parse = options_.parse;
  ingest.on_malformed = options_.on_malformed;
  ingest.max_error_rate = options_.max_error_rate;
  ingest.min_lines_for_rate = options_.min_lines_for_rate;
  ingest.max_recorded_errors = options_.max_recorded_errors;
  // Rate decisions must see the whole stream, not just this batch: without
  // the baseline a late 5-line batch with one bad line would abort a stream
  // that is 99.99% clean, and a rate creeping up across batches would never
  // trip. ingest_stats_ is only read during the batch; the caller folds the
  // batch's report forward after the read completes.
  ingest.rate_baseline = &ingest_stats_;
  // First-line BOM stripping belongs to the true start of the stream, not to
  // every batch: a follow-up batch (or a resume at a mid-file offset) must
  // classify its first line exactly as a one-shot read of the whole input.
  ingest.continuation = ingest_stats_.lines_read > 0;
  ingest.end_of_stream = end_of_stream;
  return ingest;
}

Status StreamingInferencer::AddJsonLines(std::string_view text,
                                         bool end_of_stream) {
  const json::IngestOptions ingest = BatchIngestOptions(end_of_stream);
  json::IngestStats chunk;
  Status st;
  {
    // DOM-free fused pass: type each line straight off the token stream,
    // behind the line machinery (policy, report, rate baseline).
    JSONSI_SPAN("infer.direct");
    json::LineFn fn = [&](std::string_view line) -> Result<bool> {
      Result<types::TypeRef> t =
          inference::DirectInferType(line, ingest.parse);
      if (!t.ok()) return t.status();
      AddType(std::move(t).value());
      return true;
    };
    st = json::IngestJsonLines(text, fn, ingest, &chunk);
  }
  // Accumulate even on failure, so the report covers the aborted chunk.
  ingest_stats_.Absorb(chunk, options_.max_recorded_errors);
  PublishIngestTelemetry();
  return st;
}

Status StreamingInferencer::FinishStream() {
  if (options_.on_malformed != json::MalformedLinePolicy::kFailAboveRate) {
    return Status::OK();
  }
  // An empty end-of-stream read: no lines are consumed, only the deferred
  // end-of-read rate validation runs, with the stream's cumulative stats as
  // baseline — so the abort message cites the stream's first recorded error
  // at its global line number, exactly like a one-shot read.
  return AddJsonLines(std::string_view(), /*end_of_stream=*/true);
}

Status StreamingInferencer::AddJsonLinesParallel(std::string_view text,
                                                 size_t num_threads,
                                                 bool end_of_stream) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (num_threads <= 1) return AddJsonLines(text, end_of_stream);
  JSONSI_SPAN("stream.add_parallel");
  const json::IngestOptions ingest = BatchIngestOptions(end_of_stream);

  engine::ThreadPool pool(num_threads);
  std::vector<json::ChunkSpan> spans =
      json::SplitJsonLines(text, num_threads * 4);
  std::vector<inference::TypedChunkOutcome> outcomes(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    pool.Submit([&text, &spans, &outcomes, i, &ingest] {
      outcomes[i] = inference::InferJsonLinesChunk(
          text.substr(spans[i].begin, spans[i].size()), ingest.parse,
          ingest.max_recorded_errors, i == 0 && !ingest.continuation);
    });
  }
  pool.Wait();
  JSONSI_RETURN_IF_ERROR(pool.first_error());

  json::IngestStats chunk;
  json::ChunkReplay replay =
      inference::ReplayChunkPolicy(outcomes, ingest, &chunk);

  // Per-chunk statistics shards over the records the replay kept, run on
  // the pool and folded forward in chunk order.
  struct Shard {
    fusion::TreeFuser fuser;
    std::unordered_set<uint64_t> hashes;
    stats::SizeAccumulator sizes;
  };
  const size_t included_chunks =
      replay.full_chunks + (replay.partial_records > 0 ? 1 : 0);
  std::vector<Shard> shards(included_chunks);
  const bool count_distinct = options_.count_distinct_types;
  for (size_t c = 0; c < included_chunks; ++c) {
    const size_t take =
        c < replay.full_chunks
            ? outcomes[c].types.size()
            : std::min(replay.partial_records, outcomes[c].types.size());
    if (take == 0) continue;
    Shard& shard = shards[c];
    pool.Submit([&outcomes, &shard, c, take, count_distinct] {
      JSONSI_SPAN("pipeline.worker");
      std::vector<types::TypeRef>& chunk_types = outcomes[c].types;
      for (size_t i = 0; i < take; ++i) {
        types::TypeRef& t = chunk_types[i];
        if (count_distinct) shard.hashes.insert(t->hash());
        shard.sizes.Add(t->size());
        shard.fuser.Add(std::move(t));
        JSONSI_COUNTER("stream.records").Increment();
      }
    });
  }
  pool.Wait();
  JSONSI_RETURN_IF_ERROR(pool.first_error());

  // Fold shards in stream order — the same merge Merge() performs for
  // explicit shards, so the snapshot schema matches serial AddJsonLines.
  for (Shard& shard : shards) {
    if (shard.sizes.count == 0) continue;
    fuser_.Add(shard.fuser.Finish());
    sizes_.Merge(shard.sizes);
    if (!memory_degraded_) {
      distinct_hashes_.insert(shard.hashes.begin(), shard.hashes.end());
    }
  }
  EnforceMemoryBudget();

  // Accumulate even on failure, so the report covers the aborted buffer.
  ingest_stats_.Absorb(chunk, options_.max_recorded_errors);
  PublishIngestTelemetry();
  if (telemetry::Enabled()) {
    JSONSI_COUNTER("pipeline.parallel.chunks").Add(spans.size());
  }
  return replay.status;
}

void StreamingInferencer::Merge(const StreamingInferencer& other) {
  // Fold the other side's outstanding schema in one piece; statistics merge
  // pointwise.
  if (other.sizes_.count > 0) fuser_.Add(other.fuser_.Finish());
  sizes_.Merge(other.sizes_);
  distinct_hashes_.insert(other.distinct_hashes_.begin(),
                          other.distinct_hashes_.end());
  // Shards are distinct streams; their reports concatenate (line numbers
  // shift past this side's totals, like sequential chunks).
  ingest_stats_.Absorb(other.ingest_stats_, options_.max_recorded_errors);
}

Schema StreamingInferencer::Snapshot() const {
  JSONSI_SPAN("stream.snapshot");
  JSONSI_COUNTER("stream.snapshots").Increment();
  PublishIngestTelemetry();
  Schema schema;
  schema.type = fuser_.Finish();
  schema.stats.record_count = sizes_.count;
  schema.stats.distinct_type_count = distinct_hashes_.size();
  schema.stats.min_type_size = sizes_.min;
  schema.stats.max_type_size = sizes_.max;
  schema.stats.avg_type_size = sizes_.avg();
  return schema;
}

}  // namespace jsonsi::core
