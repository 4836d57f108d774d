// Per-tenant inference sessions for the `jsi serve` daemon.
//
// A Session wraps one StreamingInferencer — its own MalformedLinePolicy,
// parser budgets (max_line_bytes / max_depth), soft memory watermark, and
// optional checkpoint file — behind a mutex, so one tenant's ingest batches
// serialize while *different* tenants run fully concurrent on the server's
// thread pool. What tenants share is deliberate and process-global: the
// TypeInterner and FuseCache, so structurally similar traffic amortizes
// across sessions (the same tables the parallel pipeline already shares
// across worker threads — identity-preserving, so isolation is not
// weakened, only allocations).
//
// Session lifecycle mirrors the one-shot CLI exactly:
//   * a policy abort (kFail, or kFailAboveRate over budget) freezes the
//     session: the pre-abort schema stays queryable, further ingests are
//     rejected — the same pre-abort state a checkpointed `jsi infer` saves;
//   * a session created with a checkpoint path is durable: the server's
//     drain path saves it on shutdown, and `"resume": true` on create
//     restores it — schemas across a server restart equal an uninterrupted
//     stream by associativity of fusion;
//   * closing a session with a `source` name publishes its schema to the
//     server's SchemaRepository (when one is configured), versioning drift.

#ifndef JSONSI_SERVER_SESSION_H_
#define JSONSI_SERVER_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/streaming_inferencer.h"
#include "json/jsonl.h"
#include "support/status.h"

namespace jsonsi::server {

/// Tenant-supplied session configuration (the POST /v1/sessions body).
struct SessionConfig {
  /// Policy, budgets, watermark, direct/DOM switch.
  core::StreamingOptions streaming;
  /// Non-empty => durable: drained on shutdown, restorable with `resume`.
  std::string checkpoint_path;
  /// Restore checkpoint_path before the first ingest (the file must exist).
  bool resume = false;
  /// Worker threads per ingest batch: 1 = serial, 0 = hardware concurrency,
  /// N = chunk-parallel on N workers (AddJsonLinesParallel semantics —
  /// byte-identical results either way).
  size_t ingest_threads = 1;
  /// Repository source name to publish the final schema under on close
  /// ("" = do not publish).
  std::string source;
};

/// Parses the JSON body of POST /v1/sessions ("" or "{}" = all defaults).
/// Recognized keys: "policy" ("fail" | "skip" | "fail-above-rate"),
/// "max_error_rate", "min_lines_for_rate", "max_line_bytes", "max_depth",
/// "memory_watermark_mb", "checkpoint", "resume", "threads", "source",
/// "count_distinct" (bool). Unknown keys are rejected so typos fail loudly.
Result<SessionConfig> ParseSessionConfig(std::string_view body);

/// Point-in-time session accounting for responses and reports.
struct SessionInfo {
  std::string id;
  uint64_t records = 0;
  json::IngestStats ingest;
  bool aborted = false;
  std::string abort_message;
  bool durable = false;
  bool memory_degraded = false;
};

/// One tenant's streaming-inference state. Thread-safe; ingest batches to
/// the same session serialize on the session mutex.
class Session {
 public:
  Session(std::string id, SessionConfig config);

  /// Restores the checkpoint when the config asked to resume.
  Status Open();

  /// Appends one JSONL batch. A policy abort freezes the session (the error
  /// is returned now and remembered; later ingests get Conflict-flavored
  /// InvalidArgument). Durable sessions are NOT checkpointed per batch —
  /// only on Checkpoint()/drain — matching `--checkpoint-every` batching.
  Status Ingest(std::string_view text);

  /// Consistent snapshot of the running schema (O(log n) fuse work).
  core::Schema Snapshot() const;

  /// Current accounting.
  SessionInfo Info() const;

  /// Saves the checkpoint now (no-op OK for non-durable sessions). Also
  /// saves a frozen session's pre-abort state, like the CLI does.
  Status Checkpoint() const;

  const std::string& id() const { return id_; }
  const SessionConfig& config() const { return config_; }

 private:
  const std::string id_;
  const SessionConfig config_;
  mutable std::mutex mu_;
  core::StreamingInferencer stream_;
  bool aborted_ = false;
  Status abort_status_;
};

/// The server's id -> Session table.
class SessionManager {
 public:
  /// Creates (and Opens) a session; ids are "s-1", "s-2", ...
  Result<std::shared_ptr<Session>> Create(const SessionConfig& config);

  /// nullptr when unknown.
  std::shared_ptr<Session> Find(const std::string& id) const;

  /// Removes and returns the session (so the caller can publish/checkpoint
  /// it after unlinking); NotFound when unknown.
  Result<std::shared_ptr<Session>> Remove(const std::string& id);

  /// All live sessions, id-sorted.
  std::vector<std::shared_ptr<Session>> All() const;

  /// Checkpoints every durable session; returns the first failure but
  /// attempts all of them (the drain path must not stop at one bad disk).
  Status CheckpointAll() const;

  size_t size() const;

 private:
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
};

}  // namespace jsonsi::server

#endif  // JSONSI_SERVER_SESSION_H_
