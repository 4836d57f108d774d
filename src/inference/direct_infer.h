// DOM-free direct inference: fuse JSON parsing and the paper's Map phase
// (Figure 4) into one single pass over the text.
//
// The DOM path materializes a json::Value tree per record, walks it with
// InferType, and throws it away — per-record allocation and pointer
// chasing that dominates typing cost at scale. DirectInferType drives the
// pull tokenizer (json/tokenizer.h) instead and builds the Figure 4 type
// bottom-up on an explicit stack: record and array nodes are assembled as
// they close (and hash-consed right there when interning is enabled),
// string and number payloads are validated but never copied. Error
// messages and line/column positions are byte-identical to Parse(...), so
// the degraded-mode ingestion policies make the same decisions on either
// path — differential-tested in tests/direct_infer_test.cc.
//
// This header also provides the chunk-parallel counterpart of
// json/jsonl_chunk.h: InferJsonLinesChunk produces types instead of DOM
// values, sharing the ChunkIngest policy machinery so the sequential
// replay is the same code on both paths. It lives in inference/ (not
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
/// document's singleton annotation, so this equals MergeFrom of the DOM
/// path's ObserveValue(*Parse(text)) exactly — differential-tested and
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
  /// observed straight into this accumulator, so memory stays O(chunks);
  /// the replay's abort exclusions are repaired by AnnotateChunkPrefix.
  std::unique_ptr<annotate::Annotation> annotation;
};

/// DOM-free sibling of json::ParseJsonLinesChunk: one isolated chunk,
/// DirectInferType per line, identical line splitting, BOM/CRLF tolerance
/// and policy-free malformed-line accounting. Pure and thread-safe. With
/// `annotate` set the outcome also carries the chunk's annotation fold.
TypedChunkOutcome InferJsonLinesChunk(std::string_view chunk,
                                      const json::ParseOptions& parse,
                                      size_t max_recorded_errors,
                                      bool first_chunk, bool annotate = false);

/// Re-annotates the first `records` well-formed lines of `chunk` into
/// `acc`. Used for the chunk a policy replay aborts inside: its eager
/// whole-chunk fold includes excluded records, so the included prefix is
/// re-scanned instead (same line machinery, DirectInferType per line).
/// Deterministic, so serial == chunk-parallel annotations hold exactly
/// even on aborted runs.
void AnnotateChunkPrefix(std::string_view chunk,
                         const json::ParseOptions& parse, bool first_chunk,
                         size_t records, annotate::Annotation* acc);

/// Replays the malformed-line policy over typed chunk outcomes — the same
/// payload-agnostic replay core as the DOM path, so abort points, statuses
/// and merged stats match a serial reader bit for bit.
json::ChunkReplay ReplayChunkPolicy(
    const std::vector<TypedChunkOutcome>& outcomes,
    const json::IngestOptions& options, json::IngestStats* stats);

/// Concatenates the types the replay decided to keep (full chunks plus the
/// partial prefix of the aborting chunk), moving them out of `outcomes`.
std::vector<types::TypeRef> TakeIncludedTypes(
    std::vector<TypedChunkOutcome>&& outcomes, const json::ChunkReplay& replay);

}  // namespace jsonsi::inference

#endif  // JSONSI_INFERENCE_DIRECT_INFER_H_
