#include "server/session.h"

#include <utility>

#include "core/checkpoint.h"
#include "core/io_pump.h"
#include "io/pipeline_reader.h"
#include "json/parser.h"
#include "telemetry/telemetry.h"

namespace jsonsi::server {
namespace {

Status BadConfig(const std::string& message) {
  return Status::InvalidArgument("session config: " + message);
}

Result<uint64_t> ConfigU64(const json::Value& value, const std::string& key) {
  if (!value.is_num() || value.num_value() < 0) {
    return BadConfig("\"" + key + "\" must be a non-negative number");
  }
  return static_cast<uint64_t>(value.num_value());
}

Result<bool> ConfigBool(const json::Value& value, const std::string& key) {
  if (!value.is_bool()) return BadConfig("\"" + key + "\" must be a boolean");
  return value.bool_value();
}

Result<std::string> ConfigStr(const json::Value& value,
                              const std::string& key) {
  if (!value.is_str()) return BadConfig("\"" + key + "\" must be a string");
  return value.str_value();
}

}  // namespace

Result<SessionConfig> ParseSessionConfig(std::string_view body) {
  SessionConfig config;
  // Server tenants default to degraded-friendly strictness: the classic
  // strict kFail, exactly like one-shot `jsi infer` with no flags.
  if (body.empty()) return config;
  Result<json::ValueRef> parsed = json::Parse(body);
  if (!parsed.ok()) {
    return BadConfig("body is not JSON: " + parsed.status().message());
  }
  const json::Value& root = *parsed.value();
  if (!root.is_record()) return BadConfig("body must be a JSON object");
  for (const json::Field& field : root.fields()) {
    const std::string& key = field.key;
    const json::Value& value = *field.value;
    if (key == "policy") {
      Result<std::string> policy = ConfigStr(value, key);
      if (!policy.ok()) return policy.status();
      if (policy.value() == "fail") {
        config.streaming.on_malformed = json::MalformedLinePolicy::kFail;
      } else if (policy.value() == "skip") {
        config.streaming.on_malformed = json::MalformedLinePolicy::kSkip;
      } else if (policy.value() == "fail-above-rate") {
        config.streaming.on_malformed =
            json::MalformedLinePolicy::kFailAboveRate;
      } else {
        return BadConfig("unknown \"policy\": " + policy.value() +
                         " (want fail | skip | fail-above-rate)");
      }
    } else if (key == "max_error_rate") {
      if (!value.is_num() || value.num_value() < 0 || value.num_value() > 1) {
        return BadConfig("\"max_error_rate\" must be a number in [0, 1]");
      }
      config.streaming.max_error_rate = value.num_value();
    } else if (key == "min_lines_for_rate") {
      Result<uint64_t> v = ConfigU64(value, key);
      if (!v.ok()) return v.status();
      config.streaming.min_lines_for_rate = v.value();
    } else if (key == "max_line_bytes") {
      Result<uint64_t> v = ConfigU64(value, key);
      if (!v.ok()) return v.status();
      config.streaming.parse.max_document_bytes =
          static_cast<size_t>(v.value());
    } else if (key == "max_depth") {
      Result<uint64_t> v = ConfigU64(value, key);
      if (!v.ok()) return v.status();
      if (v.value() == 0) return BadConfig("\"max_depth\" must be positive");
      config.streaming.parse.max_depth = static_cast<size_t>(v.value());
    } else if (key == "memory_watermark_mb") {
      Result<uint64_t> v = ConfigU64(value, key);
      if (!v.ok()) return v.status();
      config.streaming.soft_memory_limit_bytes = v.value() * (1ull << 20);
    } else if (key == "checkpoint") {
      Result<std::string> v = ConfigStr(value, key);
      if (!v.ok()) return v.status();
      config.checkpoint_path = v.value();
    } else if (key == "resume") {
      Result<bool> v = ConfigBool(value, key);
      if (!v.ok()) return v.status();
      config.resume = v.value();
    } else if (key == "threads") {
      Result<uint64_t> v = ConfigU64(value, key);
      if (!v.ok()) return v.status();
      config.ingest_threads = static_cast<size_t>(v.value());
    } else if (key == "source") {
      Result<std::string> v = ConfigStr(value, key);
      if (!v.ok()) return v.status();
      config.source = v.value();
    } else if (key == "count_distinct") {
      Result<bool> v = ConfigBool(value, key);
      if (!v.ok()) return v.status();
      config.streaming.count_distinct_types = v.value();
    } else {
      return BadConfig("unknown key \"" + key + "\"");
    }
  }
  if (config.resume && config.checkpoint_path.empty()) {
    return BadConfig("\"resume\" needs \"checkpoint\"");
  }
  return config;
}

Session::Session(std::string id, SessionConfig config)
    : id_(std::move(id)),
      config_(std::move(config)),
      stream_(config_.streaming) {}

Status Session::Open() {
  if (!config_.resume) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  return core::LoadCheckpoint(config_.checkpoint_path, &stream_);
}

Status Session::Ingest(std::string_view text) {
  std::lock_guard<std::mutex> lock(mu_);
  if (aborted_) {
    return Status::InvalidArgument("session " + id_ +
                                   " is frozen by an earlier policy abort: " +
                                   abort_status_.message());
  }
  JSONSI_COUNTER("server.ingest_bytes").Add(text.size());
  // Route the body through the shared ingestion pump (core/io_pump.h): the
  // buffered body is sliced zero-copy into newline-bounded batches, so a
  // body of any size ingests in bounded steps. One body is one logical
  // stream segment — interior batches defer the end-of-read rate check to
  // the body's end, which makes the pump byte-identical to the single Add
  // call this used to be.
  io::MemorySource source(text);
  io::PipelineReader reader(&source, io::IoOptions{});
  core::PumpOptions pump;
  pump.num_threads = config_.ingest_threads;
  Status st = core::PumpJsonLines(reader, stream_, pump);
  if (!st.ok()) {
    // Freeze with the consistent pre-abort state, exactly what a
    // checkpointed CLI run persists before exiting on a policy abort.
    aborted_ = true;
    abort_status_ = st;
  }
  return st;
}

core::Schema Session::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stream_.Snapshot();
}

SessionInfo Session::Info() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionInfo info;
  info.id = id_;
  info.records = stream_.record_count();
  info.ingest = stream_.ingest_stats();
  info.aborted = aborted_;
  info.abort_message = abort_status_.message();
  info.durable = !config_.checkpoint_path.empty();
  info.memory_degraded = stream_.memory_degraded();
  return info;
}

Status Session::Checkpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (config_.checkpoint_path.empty()) return Status::OK();
  JSONSI_COUNTER("server.checkpoints").Increment();
  return core::SaveCheckpoint(stream_, config_.checkpoint_path);
}

Result<std::shared_ptr<Session>> SessionManager::Create(
    const SessionConfig& config) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::string id = "s-" + std::to_string(next_id_++);
    session = std::make_shared<Session>(id, config);
    sessions_[session->id()] = session;
  }
  // Open (checkpoint restore) outside the table lock: disk I/O must not
  // block unrelated tenants' lookups.
  Status opened = session->Open();
  if (!opened.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    sessions_.erase(session->id());
    return opened;
  }
  JSONSI_COUNTER("server.sessions_opened").Increment();
  return session;
}

std::shared_ptr<Session> SessionManager::Find(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

Result<std::shared_ptr<Session>> SessionManager::Remove(
    const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no session " + id);
  }
  std::shared_ptr<Session> session = std::move(it->second);
  sessions_.erase(it);
  JSONSI_COUNTER("server.sessions_closed").Increment();
  return session;
}

std::vector<std::shared_ptr<Session>> SessionManager::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<Session>> all;
  all.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) all.push_back(session);
  return all;
}

Status SessionManager::CheckpointAll() const {
  Status first;
  for (const std::shared_ptr<Session>& session : All()) {
    Status st = session->Checkpoint();
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

size_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace jsonsi::server
