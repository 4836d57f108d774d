// Chunked JSON-Lines ingestion — the parallel counterpart of jsonl.h.
//
// A JSONL buffer is embarrassingly parallel to read once it is cut on line
// boundaries: SplitJsonLines() produces ~N byte ranges that never split a
// line (CRLF pairs stay whole, a UTF-8 BOM stays in the first chunk), each
// chunk is read independently on any thread (the chunk worker is
// inference::InferJsonLinesChunk, which types lines without a DOM), and a
// final sequential replay (ReplayChunkPolicy) re-applies the degraded-mode
// MalformedLinePolicy over the concatenated outcomes.
//
// The replay is what makes the parallel read *exactly* equivalent to a
// serial IngestJsonLines over the whole buffer — not merely "same records on
// clean input":
//
//   * kFail aborts at the stream's first malformed line with the same
//     "line N: <parse message>" status, and the merged IngestStats describe
//     precisely the prefix a serial reader would have consumed (chunk
//     workers scan past the error; the replay truncates their accounting at
//     the abort point using per-malformed-line snapshots).
//   * kFailAboveRate re-makes every rate decision on cumulative stream
//     counts (including IngestOptions::rate_baseline), so the abort point,
//     the error message's M/N counts, and the recorded-error prefix all
//     match the serial reader bit for bit.
//   * kSkip merges everything; stats accumulate with line numbers and byte
//     offsets rebased chunk by chunk (IngestStats::Absorb), so error
//     reports read as if one reader had scanned the whole buffer.
//
// The splitter and the payload-agnostic replay live here in src/json/ and
// know nothing about threads or types; the core layer owns the scheduling
// (see core::SchemaInferencer::InferFromJsonLines and
// core::StreamingInferencer::AddJsonLinesParallel).

#ifndef JSONSI_JSON_JSONL_CHUNK_H_
#define JSONSI_JSON_JSONL_CHUNK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "json/jsonl.h"
#include "support/status.h"

namespace jsonsi::json {

/// One half-open byte range [begin, end) of the input buffer.
struct ChunkSpan {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
};

/// Cuts `text` into at most `max_chunks` contiguous spans, each ending just
/// after a '\n' (the final span may end at end-of-buffer instead). Spans are
/// never empty, never split a line — a boundary that would land mid-line
/// (or between the '\r' and '\n' of a CRLF pair) advances to the next
/// newline — and concatenate back to exactly `text`. Returns fewer spans
/// when the input has fewer lines than requested; an empty input yields no
/// spans.
std::vector<ChunkSpan> SplitJsonLines(std::string_view text,
                                      size_t max_chunks);

/// The policy-relevant half of one chunk's outcome: everything the
/// sequential replay needs to re-make the degraded-mode decisions,
/// independent of what the chunk worker produced per record (inferred
/// types, see inference::TypedChunkOutcome). Chunk workers fill
/// it with *chunk-local* line numbers and byte offsets; ReplayChunkPolicy
/// rebases them into stream coordinates.
struct ChunkIngest {
  /// Chunk-local ingestion report (policy-free: malformed lines are always
  /// counted and skipped at this stage; the global policy runs at replay).
  IngestStats stats;

  /// Snapshot of the chunk-local counters taken immediately *after* each
  /// malformed line — enough for the replay to re-make every policy
  /// decision, and to truncate this chunk's accounting at an abort point.
  struct MalformedAt {
    uint64_t lines_read = 0;   // local line number of the malformed line
    uint64_t blank_lines = 0;
    uint64_t records = 0;      // records parsed before this line
    uint64_t malformed_lines = 0;  // including this line
    uint64_t bytes_read = 0;   // local offset just past this line
    uint64_t line_begin = 0;   // local offset of this line's first byte
  };
  std::vector<MalformedAt> malformed;

  /// Parse message of the chunk's first malformed line (kFail needs it even
  /// when IngestOptions::max_recorded_errors is 0).
  std::string first_error_message;
};

/// Decision of the sequential policy replay over parsed chunks.
struct ChunkReplay {
  /// OK, or the status a serial reader of the whole buffer would return.
  Status status;
  /// Chunks fully included before the abort (all of them when status is OK
  /// or when only the end-of-input rate check failed).
  size_t full_chunks = 0;
  /// Records of chunk `full_chunks` that a serial reader would still have
  /// ingested before aborting inside it (0 unless aborted mid-chunk).
  size_t partial_records = 0;
};

/// Replays `options.on_malformed` (with `options.rate_baseline`) over the
/// chunks' policy halves — non-owning views, in chunk order, covering the
/// buffer contiguously — and merges their reports into `*stats` exactly as
/// a serial IngestJsonLines would have accumulated them, truncated at the
/// abort point when the replay aborts. Also publishes the ingest.*
/// telemetry counters for the merged read (once, not per chunk). The typed
/// overload inference::ReplayChunkPolicy funnels into this.
ChunkReplay ReplayChunkPolicy(const std::vector<const ChunkIngest*>& outcomes,
                              const IngestOptions& options,
                              IngestStats* stats);

}  // namespace jsonsi::json

#endif  // JSONSI_JSON_JSONL_CHUNK_H_
