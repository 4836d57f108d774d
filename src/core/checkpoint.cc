#include "core/checkpoint.h"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "io/input_source.h"
#include "stats/type_stats.h"
#include "support/hash.h"
#include "telemetry/telemetry.h"
#include "types/printer.h"
#include "types/type_parser.h"

namespace jsonsi::core {
namespace {

constexpr std::string_view kHeader = "jsonsi-checkpoint 1";

std::string U64ToHex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

bool HexToU64(std::string_view s, uint64_t* out) {
  if (s.size() != 16) return false;
  uint64_t v = 0;
  for (char c : s) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    v = (v << 4) | digit;
  }
  *out = v;
  return true;
}

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

Status Corrupt(const std::string& what) {
  JSONSI_COUNTER("checkpoint.corrupt").Increment();
  return Status::ParseError("corrupt checkpoint: " + what);
}

// Splits `line` at its first space into (key, rest). Rest may be empty.
std::pair<std::string_view, std::string_view> KeyRest(std::string_view line) {
  size_t sp = line.find(' ');
  if (sp == std::string_view::npos) return {line, {}};
  return {line.substr(0, sp), line.substr(sp + 1)};
}

// Flushes a freshly-written file to stable storage before it is published:
// the rename can otherwise survive a power failure while the data does not,
// replacing the previous good checkpoint with a truncated one. (The checksum
// would detect that at load, but the prior state would already be gone.)
Status SyncFile(const std::string& path) {
#if !defined(_WIN32)
  int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return Status::Internal("cannot reopen " + path + " for fsync");
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Internal("fsync " + path + " failed");
#endif
  return Status::OK();
}

// Best-effort fsync of the directory containing `path`, making the rename
// itself durable. Failures are ignored: some filesystems refuse directory
// fsync, and the worst outcome is the previous checkpoint — still consistent.
void SyncParentDir(const std::string& path) {
#if !defined(_WIN32)
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#endif
}

// Pops the first space-delimited token off `*rest`.
bool PopToken(std::string_view* rest, std::string_view* token) {
  if (rest->empty()) return false;
  size_t sp = rest->find(' ');
  if (sp == std::string_view::npos) {
    *token = *rest;
    *rest = {};
  } else {
    *token = rest->substr(0, sp);
    *rest = rest->substr(sp + 1);
  }
  return true;
}

}  // namespace

Result<std::string> SerializeCheckpoint(
    const StreamingInferencer& inferencer) {
  JSONSI_SPAN("checkpoint.serialize");
  const StreamingOptions& o = inferencer.options_;
  std::string out;
  out.reserve(1024);
  out.append(kHeader).append("\n");

  // Options: a resumed run must behave identically, so the whole streaming
  // configuration rides along (doubles as exact hex bit patterns).
  auto emit_u64 = [&out](std::string_view key, uint64_t v) {
    out.append(key).append(" ").append(std::to_string(v)).append("\n");
  };
  auto emit_hex = [&out](std::string_view key, uint64_t v) {
    out.append(key).append(" ").append(U64ToHex(v)).append("\n");
  };
  emit_u64("count_distinct_types", o.count_distinct_types ? 1 : 0);
  emit_u64("on_malformed", static_cast<uint64_t>(o.on_malformed));
  emit_hex("max_error_rate", std::bit_cast<uint64_t>(o.max_error_rate));
  emit_u64("min_lines_for_rate", o.min_lines_for_rate);
  emit_u64("max_recorded_errors", o.max_recorded_errors);
  emit_u64("max_depth", o.parse.max_depth);
  emit_u64("max_document_bytes", o.parse.max_document_bytes);
  emit_u64("soft_memory_limit_bytes", o.soft_memory_limit_bytes);

  // Cumulative ingestion report — the kFailAboveRate baseline and the
  // resume offset both live here.
  const json::IngestStats& s = inferencer.ingest_stats_;
  emit_u64("lines_read", s.lines_read);
  emit_u64("blank_lines", s.blank_lines);
  emit_u64("records", s.records);
  emit_u64("malformed_lines", s.malformed_lines);
  emit_u64("bytes_read", s.bytes_read);
  emit_u64("bytes_consumed", s.bytes_consumed);
  for (const json::IngestError& e : s.errors) {
    // Messages are our own single-line Status texts; rest-of-line framing.
    out.append("error ")
        .append(std::to_string(e.line_number))
        .append(" ")
        .append(std::to_string(e.byte_offset))
        .append(" ")
        .append(e.message)
        .append("\n");
  }

  const stats::SizeAccumulator& sizes = inferencer.sizes_;
  emit_u64("record_count", sizes.count);
  emit_u64("min_type_size", sizes.min);
  emit_u64("max_type_size", sizes.max);
  emit_hex("total_type_size", std::bit_cast<uint64_t>(sizes.total));
  emit_u64("memory_degraded", inferencer.memory_degraded_ ? 1 : 0);
  for (uint64_t h : inferencer.distinct_hashes_) {
    out.append("hash ").append(U64ToHex(h)).append("\n");
  }

  // The running schema: binary-counter slots and the dedup multiset, each
  // type through the printer (single-line; round-trips via ParseType).
  emit_u64("fuser_count", inferencer.fuser_.count());
  const std::vector<types::TypeRef>& slots = inferencer.fuser_.slots();
  for (size_t k = 0; k < slots.size(); ++k) {
    if (!slots[k]) continue;
    out.append("slot ")
        .append(std::to_string(k))
        .append(" ")
        .append(types::ToString(slots[k]))
        .append("\n");
  }
  for (const auto& [t, count] : inferencer.fuser_.pending_entries()) {
    out.append("pending ")
        .append(std::to_string(count))
        .append(" ")
        .append(types::ToString(t))
        .append("\n");
  }

  out.append("end\n");
  // Trailing checksum over every preceding byte: any byte-prefix truncation
  // either loses this line or fails the comparison.
  const uint64_t checksum = HashBytes(out);
  out.append("checksum ").append(U64ToHex(checksum)).append("\n");
  return out;
}

Status RestoreCheckpoint(std::string_view text,
                         StreamingInferencer* inferencer) {
  JSONSI_SPAN("checkpoint.restore");
  // --- Verify the envelope before believing any field. ---
  if (text.empty() || text.back() != '\n') {
    return Corrupt("missing trailing newline");
  }
  std::string_view body = text.substr(0, text.size() - 1);
  size_t last_nl = body.rfind('\n');
  if (last_nl == std::string_view::npos) return Corrupt("no checksum line");
  std::string_view last_line = body.substr(last_nl + 1);
  body = text.substr(0, last_nl + 1);  // checksum input: includes that '\n'
  auto [last_key, last_rest] = KeyRest(last_line);
  uint64_t want = 0;
  if (last_key != "checksum" || !HexToU64(last_rest, &want)) {
    return Corrupt("no checksum line");
  }
  if (HashBytes(body) != want) return Corrupt("checksum mismatch");

  // --- Parse the verified body line by line. ---
  StreamingOptions opts;
  json::IngestStats stats;
  stats::SizeAccumulator sizes;
  // Set by the legacy "skip_malformed" key; applied after the loop.
  bool legacy_skip_malformed = false;
  bool memory_degraded = false;
  std::vector<uint64_t> hashes;
  uint64_t fuser_count = 0;
  std::vector<types::TypeRef> slots;
  std::vector<std::pair<types::TypeRef, size_t>> pending;
  bool saw_end = false;

  size_t pos = 0, line_no = 0;
  while (pos < body.size()) {
    size_t nl = body.find('\n', pos);
    std::string_view line = body.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (line_no == 1) {
      if (line != kHeader) return Corrupt("bad header");
      continue;
    }
    auto [key, rest] = KeyRest(line);
    if (key == "end") {
      saw_end = true;
      break;
    }
    uint64_t v = 0;
    auto u64 = [&rest, &v] { return ParseU64(rest, &v); };
    auto hex = [&rest, &v] { return HexToU64(rest, &v); };
    bool ok = true;
    if (key == "count_distinct_types") {
      ok = u64();
      opts.count_distinct_types = v != 0;
    } else if (key == "direct_infer") {
      // Legacy key: the DOM/direct text-path switch no longer exists (text
      // is always typed DOM-free, with identical results), so older
      // checkpoints stay restorable by validating and ignoring it.
      ok = u64();
    } else if (key == "skip_malformed") {
      // Legacy key: the old boolean spelling of on_malformed = kSkip, which
      // took effect only while the policy was the default kFail. Applied
      // after the loop, since older files wrote it before "on_malformed".
      ok = u64();
      legacy_skip_malformed = v != 0;
    } else if (key == "on_malformed") {
      ok = u64() && v <= 2;
      opts.on_malformed = static_cast<json::MalformedLinePolicy>(v);
    } else if (key == "max_error_rate") {
      ok = hex();
      opts.max_error_rate = std::bit_cast<double>(v);
    } else if (key == "min_lines_for_rate") {
      ok = u64();
      opts.min_lines_for_rate = v;
    } else if (key == "max_recorded_errors") {
      ok = u64();
      opts.max_recorded_errors = v;
    } else if (key == "max_depth") {
      ok = u64();
      opts.parse.max_depth = v;
    } else if (key == "max_document_bytes") {
      ok = u64();
      opts.parse.max_document_bytes = v;
    } else if (key == "soft_memory_limit_bytes") {
      ok = u64();
      opts.soft_memory_limit_bytes = v;
    } else if (key == "lines_read") {
      ok = u64();
      stats.lines_read = v;
    } else if (key == "blank_lines") {
      ok = u64();
      stats.blank_lines = v;
    } else if (key == "records") {
      ok = u64();
      stats.records = v;
    } else if (key == "malformed_lines") {
      ok = u64();
      stats.malformed_lines = v;
    } else if (key == "bytes_read") {
      ok = u64();
      stats.bytes_read = v;
    } else if (key == "bytes_consumed") {
      ok = u64();
      stats.bytes_consumed = v;
    } else if (key == "error") {
      json::IngestError e;
      std::string_view tok;
      ok = PopToken(&rest, &tok) && ParseU64(tok, &e.line_number) &&
           PopToken(&rest, &tok) && ParseU64(tok, &e.byte_offset);
      e.message = std::string(rest);
      if (ok) stats.errors.push_back(std::move(e));
    } else if (key == "record_count") {
      ok = u64();
      sizes.count = v;
    } else if (key == "min_type_size") {
      ok = u64();
      sizes.min = v;
    } else if (key == "max_type_size") {
      ok = u64();
      sizes.max = v;
    } else if (key == "total_type_size") {
      ok = hex();
      sizes.total = std::bit_cast<double>(v);
    } else if (key == "memory_degraded") {
      ok = u64();
      memory_degraded = v != 0;
    } else if (key == "hash") {
      ok = hex();
      if (ok) hashes.push_back(v);
    } else if (key == "fuser_count") {
      ok = u64();
      fuser_count = v;
    } else if (key == "slot") {
      std::string_view tok;
      ok = PopToken(&rest, &tok) && ParseU64(tok, &v) && v < 64;
      if (ok) {
        Result<types::TypeRef> t = types::ParseType(rest);
        if (!t.ok()) return Corrupt("slot type: " + t.status().message());
        if (slots.size() <= v) slots.resize(v + 1);
        slots[v] = std::move(t).value();
      }
    } else if (key == "pending") {
      std::string_view tok;
      ok = PopToken(&rest, &tok) && ParseU64(tok, &v) && v > 0;
      if (ok) {
        Result<types::TypeRef> t = types::ParseType(rest);
        if (!t.ok()) return Corrupt("pending type: " + t.status().message());
        pending.emplace_back(std::move(t).value(), v);
      }
    } else {
      // Unknown keys are rejected, not skipped: the checksum already proves
      // integrity, so an unknown key means a version/format mismatch.
      return Corrupt("unknown key '" + std::string(key) + "'");
    }
    if (!ok) return Corrupt("bad value for '" + std::string(key) + "'");
  }
  if (!saw_end) return Corrupt("missing end marker");
  if (legacy_skip_malformed &&
      opts.on_malformed == json::MalformedLinePolicy::kFail) {
    opts.on_malformed = json::MalformedLinePolicy::kSkip;
  }

  // --- Commit: rebuild the inferencer wholesale. ---
  // A checkpoint saved after an aborted read carries the aborting line in
  // its counts (scanned but not consumed, bytes_read > bytes_consumed). The
  // resumed read restarts at bytes_consumed and re-scans that line, so
  // rewind to the consumed prefix: otherwise Absorb would rebase the next
  // read's offsets past the stale bytes_read — inflating bytes_consumed by
  // the old failing line's length, so a later checkpoint+resume would skip
  // those bytes mid-line — and the re-read line would be double-counted.
  stats.RewindToConsumed();
  StreamingInferencer restored(opts);
  restored.ingest_stats_ = std::move(stats);
  restored.sizes_ = sizes;
  restored.memory_degraded_ = memory_degraded;
  restored.distinct_hashes_.insert(hashes.begin(), hashes.end());
  restored.fuser_.RestoreState(std::move(slots), std::move(pending),
                               fuser_count);
  *inferencer = std::move(restored);
  JSONSI_COUNTER("checkpoint.loads").Increment();
  return Status::OK();
}

Status SaveCheckpoint(const StreamingInferencer& inferencer,
                      const std::string& path,
                      const TornWriteInjector* fault) {
  JSONSI_SPAN("checkpoint.save");
  Result<std::string> payload = SerializeCheckpoint(inferencer);
  JSONSI_RETURN_IF_ERROR(payload.status());
  std::string bytes = std::move(payload).value();
  if (fault) {
    if (fault->corrupt_at < bytes.size()) {
      bytes[fault->corrupt_at] ^= 0x01;
    }
    if (fault->truncate_at < bytes.size()) {
      bytes.resize(fault->truncate_at);
    }
  }

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot open " + tmp + " for writing");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) return Status::Internal("short write to " + tmp);
  }
  JSONSI_RETURN_IF_ERROR(SyncFile(tmp));
  if (fault && fault->fail_before_rename) {
    return Status::Internal("injected crash before rename");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("rename " + tmp + " -> " + path + " failed");
  }
  SyncParentDir(path);
  JSONSI_COUNTER("checkpoint.saves").Increment();
  JSONSI_COUNTER("checkpoint.bytes").Add(bytes.size());
  return Status::OK();
}

Status LoadCheckpoint(const std::string& path,
                      StreamingInferencer* inferencer) {
  JSONSI_SPAN("checkpoint.load");
  // Single stat-sized read (io/input_source.h), not a byte-iterator slurp.
  Result<std::string> text = io::ReadFileToString(path);
  if (!text.ok()) {
    if (text.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("cannot open checkpoint " + path);
    }
    return text.status();
  }
  return RestoreCheckpoint(text.value(), inferencer);
}

}  // namespace jsonsi::core
