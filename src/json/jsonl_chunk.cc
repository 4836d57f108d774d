#include "json/jsonl_chunk.h"

#include <algorithm>

#include "json/simd/kernel.h"
#include "telemetry/telemetry.h"

namespace jsonsi::json {
namespace {

// Mirror of jsonl.cc's per-read telemetry publication: one bulk add per
// merged parallel read, under the same counter names, so serial and chunked
// ingestion are indistinguishable to exporters.
void RecordIngestTelemetry(const IngestStats& stats) {
  if (!telemetry::Enabled()) return;
  JSONSI_COUNTER("ingest.reads").Increment();
  JSONSI_COUNTER("ingest.lines").Add(stats.lines_read);
  JSONSI_COUNTER("ingest.blank_lines").Add(stats.blank_lines);
  JSONSI_COUNTER("ingest.records").Add(stats.records);
  JSONSI_COUNTER("ingest.malformed_lines").Add(stats.malformed_lines);
  JSONSI_COUNTER("ingest.bytes").Add(stats.bytes_read);
}

}  // namespace

std::vector<ChunkSpan> SplitJsonLines(std::string_view text,
                                      size_t max_chunks) {
  std::vector<ChunkSpan> spans;
  if (text.empty()) return spans;
  max_chunks = std::max<size_t>(1, max_chunks);
  // Aim for equal byte shares; every boundary then advances to the next
  // '\n' so no line (or CRLF pair) is ever split. Short inputs simply
  // produce fewer chunks.
  const size_t target = std::max<size_t>(1, text.size() / max_chunks);
  size_t begin = 0;
  while (begin < text.size() && spans.size() + 1 < max_chunks) {
    size_t want = begin + target;
    if (want >= text.size()) break;
    size_t nl = simd::FindNewline(text, want - 1);
    if (nl >= text.size() || nl + 1 >= text.size()) break;
    spans.push_back(ChunkSpan{begin, nl + 1});
    begin = nl + 1;
  }
  spans.push_back(ChunkSpan{begin, text.size()});
  return spans;
}

namespace {

// Truncates chunk `o`'s accounting at malformed-line snapshot `at` and folds
// it into `*stats` — the prefix a serial reader would have consumed before
// aborting on that line.
void AbsorbTruncated(const ChunkIngest& o, const ChunkIngest::MalformedAt& at,
                     size_t max_recorded_errors, IngestStats* stats) {
  IngestStats prefix;
  prefix.lines_read = at.lines_read;
  prefix.blank_lines = at.blank_lines;
  prefix.records = at.records;
  prefix.malformed_lines = at.malformed_lines;
  prefix.bytes_read = at.bytes_read;
  // The aborting line itself was not consumed: a resumed read restarts at
  // its first byte, exactly like the serial LineIngester's abort.
  prefix.bytes_consumed = at.line_begin;
  for (const IngestError& e : o.stats.errors) {
    if (e.line_number > at.lines_read) break;
    prefix.errors.push_back(e);
  }
  stats->Absorb(prefix, max_recorded_errors);
}

Status RateError(const IngestOptions& options, const IngestStats& stats) {
  uint64_t base_records =
      options.rate_baseline ? options.rate_baseline->records : 0;
  uint64_t base_malformed =
      options.rate_baseline ? options.rate_baseline->malformed_lines : 0;
  uint64_t malformed = base_malformed + stats.malformed_lines;
  uint64_t non_blank =
      base_records + base_malformed + stats.records + stats.malformed_lines;
  std::string msg = "malformed-line rate " + std::to_string(malformed) + "/" +
                    std::to_string(non_blank) + " exceeds tolerated rate";
  // Mirror of LineIngester::RateError: cite the stream's globally-first
  // recorded error, preferring the baseline's (already stream-global) over
  // this read's (rebased), so batched and one-shot reads abort identically.
  if (options.rate_baseline && !options.rate_baseline->errors.empty()) {
    const IngestError& first = options.rate_baseline->errors.front();
    msg += "; first error at line " + std::to_string(first.line_number) +
           ": " + first.message;
  } else if (!stats.errors.empty()) {
    uint64_t base_lines =
        options.rate_baseline ? options.rate_baseline->lines_read : 0;
    msg += "; first error at line " +
           std::to_string(base_lines + stats.errors.front().line_number) +
           ": " + stats.errors.front().message;
  }
  return Status::ParseError(std::move(msg));
}

}  // namespace

ChunkReplay ReplayChunkPolicy(const std::vector<const ChunkIngest*>& outcomes,
                              const IngestOptions& options,
                              IngestStats* stats) {
  IngestStats local;
  if (!stats) stats = &local;
  *stats = IngestStats{};
  ChunkReplay replay;
  const uint64_t base_records =
      options.rate_baseline ? options.rate_baseline->records : 0;
  const uint64_t base_malformed =
      options.rate_baseline ? options.rate_baseline->malformed_lines : 0;
  const auto exceeded = [&options](uint64_t malformed, uint64_t non_blank) {
    return static_cast<double>(malformed) >
           options.max_error_rate * static_cast<double>(non_blank);
  };

  for (size_t c = 0; c < outcomes.size(); ++c) {
    const ChunkIngest& o = *outcomes[c];
    if (options.on_malformed != MalformedLinePolicy::kSkip) {
      for (const ChunkIngest::MalformedAt& at : o.malformed) {
        // Stream-cumulative counts at the moment this line failed, exactly
        // as the serial LineIngester would have seen them.
        uint64_t malformed_at = stats->malformed_lines + at.malformed_lines;
        uint64_t records_at = stats->records + at.records;
        bool abort = false;
        if (options.on_malformed == MalformedLinePolicy::kFail) {
          abort = true;
        } else {  // kFailAboveRate
          uint64_t cum_non_blank =
              base_records + base_malformed + records_at + malformed_at;
          uint64_t cum_malformed = base_malformed + malformed_at;
          abort = cum_non_blank >= options.min_lines_for_rate &&
                  exceeded(cum_malformed, cum_non_blank);
        }
        if (abort) {
          AbsorbTruncated(o, at, options.max_recorded_errors, stats);
          replay.full_chunks = c;
          replay.partial_records = at.records;
          if (options.on_malformed == MalformedLinePolicy::kFail) {
            // Baseline lines keep the number stream-global under batching.
            uint64_t base_lines =
                options.rate_baseline ? options.rate_baseline->lines_read : 0;
            replay.status = Status::ParseError(
                "line " + std::to_string(base_lines + stats->lines_read) +
                ": " + o.first_error_message);
          } else {
            replay.status = RateError(options, *stats);
          }
          RecordIngestTelemetry(*stats);
          return replay;
        }
      }
    }
    stats->Absorb(o.stats, options.max_recorded_errors);
  }

  replay.full_chunks = outcomes.size();
  replay.partial_records = 0;
  replay.status = Status::OK();
  // End-of-input rate check, mirroring LineIngester::Finish(): short inputs
  // (below min_lines_for_rate) are still policed once the read completes.
  // Interior batches of a longer stream defer this to the final batch.
  if (options.on_malformed == MalformedLinePolicy::kFailAboveRate &&
      options.end_of_stream && base_malformed + stats->malformed_lines > 0) {
    uint64_t cum_malformed = base_malformed + stats->malformed_lines;
    uint64_t cum_non_blank = base_records + base_malformed + stats->records +
                             stats->malformed_lines;
    if (exceeded(cum_malformed, cum_non_blank)) {
      replay.status = RateError(options, *stats);
    }
  }
  RecordIngestTelemetry(*stats);
  return replay;
}

}  // namespace jsonsi::json
