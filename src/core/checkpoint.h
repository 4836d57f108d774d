// Crash-safe checkpoint/resume for streaming inference.
//
// A long-running `jsi infer` over a multi-GB JSON-Lines feed should survive
// being killed: a checkpoint captures the *entire* stream state of a
// StreamingInferencer — the running schema (the TreeFuser's binary-counter
// slots and dedup multiset, each type serialized through the existing
// printer/parser round-trip), the cumulative IngestStats (which double as
// the kFailAboveRate policy baseline), the distinct-type hash set, the size
// statistics, and `bytes_consumed`, the exact byte offset to restart reading
// the source from. Restoring the checkpoint and re-feeding the source from
// that offset produces a schema TypeEquals-identical to the uninterrupted
// run, by associativity of fusion (property-tested in checkpoint_test.cc).
//
// -- On-disk format ---------------------------------------------------------
//
// A checkpoint is line-oriented text: a versioned header, `key value` lines
// (types in the paper's surface syntax, doubles as hex bit patterns), an
// `end` marker, and a trailing `checksum <hex>` line holding HashBytes over
// every preceding byte. The checksum is what makes torn writes detectable:
// a file truncated at ANY byte prefix either lacks a well-formed checksum
// line or fails verification — there is no prefix that silently restores as
// an earlier state (fuzzed in fuzz/checkpoint_fuzz.cc).
//
// -- Durability protocol ----------------------------------------------------
//
// SaveCheckpoint writes to `<path>.tmp` and publishes with an atomic
// rename(2), so a crash mid-write leaves the previous checkpoint intact. The
// TornWriteInjector hook truncates/corrupts the payload or aborts before the
// rename — the fault-injection surface the recovery tests drive.

#ifndef JSONSI_CORE_CHECKPOINT_H_
#define JSONSI_CORE_CHECKPOINT_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "core/streaming_inferencer.h"
#include "support/status.h"

namespace jsonsi::core {

/// Fault-injection hook for SaveCheckpoint, simulating torn writes and
/// crashes in the durability protocol. Defaults inject nothing.
struct TornWriteInjector {
  /// Keep only the first N payload bytes (SIZE_MAX = no truncation). The
  /// truncated file is still published via rename — the checksum must catch
  /// it at load time.
  size_t truncate_at = static_cast<size_t>(-1);
  /// XOR 0x01 into the payload byte at this offset (SIZE_MAX = none).
  size_t corrupt_at = static_cast<size_t>(-1);
  /// Abort after writing the temp file but before the rename, as a crash
  /// between the two syscalls would: the previous checkpoint at `path` must
  /// survive untouched.
  bool fail_before_rename = false;
};

/// Serializes the inferencer's full stream state to the checkpoint text
/// format (checksum line included).
Result<std::string> SerializeCheckpoint(const StreamingInferencer& inferencer);

/// Parses and verifies checkpoint text and replaces `*inferencer` wholesale
/// (options included) with the captured state. Any truncation, corruption,
/// or version mismatch is a ParseError; `*inferencer` is untouched on
/// failure. Files from older writers stay restorable: their `direct_infer`
/// key is ignored and `skip_malformed 1` maps to on_malformed = kSkip.
Status RestoreCheckpoint(std::string_view text,
                         StreamingInferencer* inferencer);

/// Serializes and durably writes a checkpoint: payload to `<path>.tmp`,
/// then atomic rename onto `path`. `fault`, when given, injects a torn
/// write (see TornWriteInjector).
Status SaveCheckpoint(const StreamingInferencer& inferencer,
                      const std::string& path,
                      const TornWriteInjector* fault = nullptr);

/// Reads `path` and restores it into `*inferencer` via RestoreCheckpoint.
Status LoadCheckpoint(const std::string& path,
                      StreamingInferencer* inferencer);

}  // namespace jsonsi::core

#endif  // JSONSI_CORE_CHECKPOINT_H_
