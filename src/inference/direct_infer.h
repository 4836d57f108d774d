// DOM-free direct inference: fuse JSON parsing and the paper's Map phase
// (Figure 4) into one single pass over the text. This is how every text
// entry point types its records.
//
// The reference composition, InferType(*json::Parse(text)), materializes a
// json::Value tree per record, walks it, and throws it away — per-record
// allocation and pointer chasing that dominates typing cost at scale. It
// stays as the value API and as the test oracle. DirectInferType drives the
// pull tokenizer (json/tokenizer.h) instead and builds the Figure 4 type
// bottom-up on an explicit stack: record and array nodes are assembled as
// they close (and hash-consed right there when interning is enabled),
// string and number payloads are validated but never copied. Error
// messages and line/column positions are byte-identical to Parse(...), so
// the degraded-mode ingestion policies decide exactly as they would over
// json::ParseJsonLines — differential-tested in tests/direct_infer_test.cc
// and fuzz/differential_fuzz.cc.
//
// This header also provides the chunk worker of json/jsonl_chunk.h:
// InferJsonLinesChunk types one chunk's lines and fills the ChunkIngest
// policy half the sequential replay consumes. It lives in inference/ (not
// json/) because it produces types::TypeRef.

#ifndef JSONSI_INFERENCE_DIRECT_INFER_H_
#define JSONSI_INFERENCE_DIRECT_INFER_H_

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "annotate/annotation.h"
#include "json/jsonl.h"
#include "json/jsonl_chunk.h"
#include "json/parser.h"
#include "support/status.h"
#include "types/type.h"

namespace jsonsi::inference {

/// Infers the Figure 4 type of one JSON document without building a DOM.
/// Equivalent to InferType(*Parse(text, options)) — same type (TypeEquals,
/// and pointer-identical under interning), same Status on malformed input —
/// in one pass and O(depth) auxiliary space.
///
/// With `ann` non-null, also folds the document's statistics into `ann`
/// (annotate/annotation.h) straight from the token stream — no DOM and no
/// per-record annotation tree. Validate, then observe: the typing pass
/// decides accept or reject, and only an accepted document is re-scanned by
/// a type-free pass that observes into `ann` (observing is merging the
/// document's singleton annotation, so this equals MergeFrom of the
/// reference ObserveValue(*Parse(text)) exactly — differential-tested and
/// fuzzed). `ann` is modified only when the result is OK, so callers pass
/// their accumulator directly.
Result<types::TypeRef> DirectInferType(std::string_view text,
                                       const json::ParseOptions& options = {},
                                       annotate::Annotation* ann = nullptr);

/// Everything one DOM-free chunk worker contributes to a merged parallel
/// read: inferred types instead of parsed values, plus the shared
/// ChunkIngest policy half (chunk-local stats, malformed-line snapshots).
struct TypedChunkOutcome : json::ChunkIngest {
  /// Types inferred from the chunk's well-formed lines, in line order.
  std::vector<types::TypeRef> types;
  /// Eagerly folded annotation of the chunk's well-formed lines (non-null
  /// only when the worker ran with annotate=true). Each accepted line is
  /// observed straight into this accumulator, so memory stays O(chunks).
  /// A replay that keeps only part of a chunk also fails the read, so the
  /// whole-chunk fold is all a successful read ever merges.
  std::unique_ptr<annotate::Annotation> annotation;
};

/// Types one chunk in isolation: DirectInferType per line, with the serial
/// reader's line splitting, BOM/CRLF tolerance and policy-free
/// malformed-line accounting. Pure and thread-safe: may run concurrently
/// with other chunks of the same buffer. `first_chunk` marks the chunk
/// holding the stream's first line (only it tolerates a UTF-8 BOM);
/// `max_recorded_errors` bounds the per-chunk error list like
/// IngestOptions::max_recorded_errors bounds the serial reader's. With
/// `annotate` set the outcome also carries the chunk's annotation fold.
TypedChunkOutcome InferJsonLinesChunk(std::string_view chunk,
                                      const json::ParseOptions& parse,
                                      size_t max_recorded_errors,
                                      bool first_chunk, bool annotate = false);

/// Replays the malformed-line policy over typed chunk outcomes through the
/// payload-agnostic json::ReplayChunkPolicy, so abort points, statuses and
/// merged stats match a serial reader bit for bit.
json::ChunkReplay ReplayChunkPolicy(
    const std::vector<TypedChunkOutcome>& outcomes,
    const json::IngestOptions& options, json::IngestStats* stats);

/// Concatenates the types the replay decided to keep (full chunks plus the
/// partial prefix of the aborting chunk), moving them out of `outcomes` —
/// what a serial degraded-mode reader would have delivered before the abort.
std::vector<types::TypeRef> TakeIncludedTypes(
    std::vector<TypedChunkOutcome>&& outcomes, const json::ChunkReplay& replay);

}  // namespace jsonsi::inference

#endif  // JSONSI_INFERENCE_DIRECT_INFER_H_
