// Tests for crash-safe checkpoint/resume (core/checkpoint.h).
//
// The two headline invariants of the durability layer, property-tested:
//   * a run killed and resumed at ANY record boundary produces a schema
//     TypeEquals-identical (and statistics-identical) to the uninterrupted
//     run — exhaustively at small scale, sampled over a 10k-record corpus;
//   * a checkpoint truncated at EVERY byte prefix, or corrupted at every
//     byte, is detected as corrupt — there is no input that silently
//     restores to a wrong state.
// Plus the durability protocol (temp-file + atomic rename, TornWriteInjector
// faults leave the previous checkpoint intact), abort/resume offsets, and
// SchemaRepository interop (a resumed run registers with the same
// version/diff history as an uninterrupted one).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.h"
#include "core/streaming_inferencer.h"
#include "datagen/generator.h"
#include "json/serializer.h"
#include "repository/schema_repository.h"
#include "support/hash.h"
#include "types/type.h"
#include "types/type_parser.h"

namespace jsonsi::core {
namespace {

std::string DatagenJsonl(datagen::DatasetId id, size_t n, uint64_t seed) {
  auto gen = datagen::MakeGenerator(id, seed);
  std::string text;
  for (size_t i = 0; i < n; ++i) {
    json::AppendJson(*gen->Generate(i), &text);
    text.push_back('\n');
  }
  return text;
}

// Byte offsets of every line start in `text` (first entry 0), plus end.
std::vector<size_t> LineBoundaries(std::string_view text) {
  std::vector<size_t> offsets{0};
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') offsets.push_back(i + 1);
  }
  if (offsets.back() != text.size()) offsets.push_back(text.size());
  return offsets;
}

void ExpectSameState(const StreamingInferencer& a,
                     const StreamingInferencer& b) {
  Schema sa = a.Snapshot();
  Schema sb = b.Snapshot();
  EXPECT_TRUE(sa.type->Equals(*sb.type))
      << "schemas diverge after resume";
  EXPECT_EQ(sa.stats.record_count, sb.stats.record_count);
  EXPECT_EQ(sa.stats.distinct_type_count, sb.stats.distinct_type_count);
  EXPECT_EQ(sa.stats.min_type_size, sb.stats.min_type_size);
  EXPECT_EQ(sa.stats.max_type_size, sb.stats.max_type_size);
  EXPECT_NEAR(sa.stats.avg_type_size, sb.stats.avg_type_size, 1e-9);
  EXPECT_EQ(a.ingest_stats().bytes_consumed, b.ingest_stats().bytes_consumed);
  EXPECT_EQ(a.ingest_stats().lines_read, b.ingest_stats().lines_read);
  EXPECT_EQ(a.ingest_stats().malformed_lines,
            b.ingest_stats().malformed_lines);
}

TEST(CheckpointTest, EmptyStreamRoundTrips) {
  StreamingInferencer original;
  auto text = SerializeCheckpoint(original);
  ASSERT_TRUE(text.ok()) << text.status();
  StreamingInferencer restored;
  ASSERT_TRUE(RestoreCheckpoint(text.value(), &restored).ok());
  ExpectSameState(original, restored);
  EXPECT_TRUE(restored.Snapshot().type->is_empty());
}

TEST(CheckpointTest, RoundTripPreservesStateAndOptions) {
  StreamingOptions opts;
  opts.on_malformed = json::MalformedLinePolicy::kSkip;
  opts.parse.max_depth = 64;
  opts.parse.max_document_bytes = 1 << 20;
  opts.max_error_rate = 0.25;
  StreamingInferencer original(opts);
  ASSERT_TRUE(original
                  .AddJsonLines("{\"a\":1}\nbad line\n{\"a\":\"s\"}\n\n"
                                "{\"b\":[1,2]}\n")
                  .ok());

  auto text = SerializeCheckpoint(original);
  ASSERT_TRUE(text.ok()) << text.status();
  StreamingInferencer restored;
  ASSERT_TRUE(RestoreCheckpoint(text.value(), &restored).ok());

  ExpectSameState(original, restored);
  EXPECT_EQ(restored.options().on_malformed,
            json::MalformedLinePolicy::kSkip);
  EXPECT_EQ(restored.options().parse.max_depth, 64u);
  EXPECT_EQ(restored.options().parse.max_document_bytes, 1u << 20);
  EXPECT_DOUBLE_EQ(restored.options().max_error_rate, 0.25);
  EXPECT_EQ(restored.ingest_stats().errors.size(),
            original.ingest_stats().errors.size());
  ASSERT_FALSE(restored.ingest_stats().errors.empty());
  EXPECT_EQ(restored.ingest_stats().errors[0].message,
            original.ingest_stats().errors[0].message);

  // Both must keep evolving identically: the checkpoint carries the policy
  // baseline, not just the schema.
  ASSERT_TRUE(original.AddJsonLines("{\"c\":null}\nworse\n").ok());
  ASSERT_TRUE(restored.AddJsonLines("{\"c\":null}\nworse\n").ok());
  ExpectSameState(original, restored);
}

// The headline invariant, exhaustively: kill at every record boundary of a
// mixed corpus and resume; the result must equal the uninterrupted run.
TEST(CheckpointTest, ResumeAtEveryRecordBoundaryMatchesUninterrupted) {
  const std::string text =
      DatagenJsonl(datagen::DatasetId::kGitHub, 120, 3) +
      DatagenJsonl(datagen::DatasetId::kTwitter, 80, 4);
  const std::vector<size_t> boundaries = LineBoundaries(text);

  StreamingInferencer uninterrupted;
  ASSERT_TRUE(uninterrupted.AddJsonLines(text).ok());

  for (size_t off : boundaries) {
    StreamingInferencer first;
    ASSERT_TRUE(first.AddJsonLines(std::string_view(text).substr(0, off)).ok());
    ASSERT_EQ(first.ingest_stats().bytes_consumed, off);

    auto cp = SerializeCheckpoint(first);
    ASSERT_TRUE(cp.ok()) << cp.status();
    StreamingInferencer resumed;
    ASSERT_TRUE(RestoreCheckpoint(cp.value(), &resumed).ok());
    size_t resume_at = resumed.ingest_stats().bytes_consumed;
    ASSERT_EQ(resume_at, off);
    ASSERT_TRUE(
        resumed.AddJsonLines(std::string_view(text).substr(resume_at)).ok());
    ExpectSameState(uninterrupted, resumed);
  }
}

// Same invariant at scale (10k records), sampled boundaries, resuming onto
// the chunk-parallel path — resume must not care how the remainder is fed.
TEST(CheckpointTest, TenThousandRecordsSampledBoundariesParallelResume) {
  const std::string text =
      DatagenJsonl(datagen::DatasetId::kGitHub, 10000, 11);
  const std::vector<size_t> boundaries = LineBoundaries(text);

  StreamingInferencer uninterrupted;
  ASSERT_TRUE(uninterrupted.AddJsonLines(text).ok());
  Schema full = uninterrupted.Snapshot();

  for (size_t b = 977; b < boundaries.size(); b += 977) {
    size_t off = boundaries[b];
    StreamingInferencer first;
    ASSERT_TRUE(
        first.AddJsonLines(std::string_view(text).substr(0, off)).ok());
    auto cp = SerializeCheckpoint(first);
    ASSERT_TRUE(cp.ok()) << cp.status();
    StreamingInferencer resumed;
    ASSERT_TRUE(RestoreCheckpoint(cp.value(), &resumed).ok());
    ASSERT_TRUE(resumed
                    .AddJsonLinesParallel(std::string_view(text).substr(off),
                                          4)
                    .ok());
    Schema schema = resumed.Snapshot();
    EXPECT_TRUE(schema.type->Equals(*full.type)) << "boundary " << b;
    EXPECT_EQ(schema.stats.record_count, full.stats.record_count);
    EXPECT_EQ(schema.stats.distinct_type_count,
              full.stats.distinct_type_count);
  }
}

// Degraded-mode resume: an aborted read checkpoints with bytes_consumed at
// the aborting line; fixing the input in place and resuming equals a clean
// run over the fixed input.
TEST(CheckpointTest, AbortCheckpointResumesAtTheFailingLine) {
  std::string good = DatagenJsonl(datagen::DatasetId::kGitHub, 40, 9);
  std::vector<size_t> lines = LineBoundaries(good);
  std::string broken = good;
  size_t bad_at = lines[17];
  broken[bad_at] = '#';  // line 18 now fails to parse

  StreamingInferencer stream;
  Status st = stream.AddJsonLines(broken);
  ASSERT_FALSE(st.ok());
  ASSERT_EQ(stream.ingest_stats().bytes_consumed, bad_at);

  auto cp = SerializeCheckpoint(stream);
  ASSERT_TRUE(cp.ok()) << cp.status();
  StreamingInferencer resumed;
  ASSERT_TRUE(RestoreCheckpoint(cp.value(), &resumed).ok());
  size_t off = resumed.ingest_stats().bytes_consumed;
  ASSERT_EQ(off, bad_at);
  // Restore rewinds to the consumed prefix: the aborting line was scanned
  // but not consumed, and the resumed read re-scans it, so its counts and
  // recorded error must not be carried twice.
  EXPECT_EQ(resumed.ingest_stats().bytes_read, bad_at);
  EXPECT_EQ(resumed.ingest_stats().lines_read, 17u);
  EXPECT_EQ(resumed.ingest_stats().malformed_lines, 0u);
  EXPECT_TRUE(resumed.ingest_stats().errors.empty());
  ASSERT_TRUE(
      resumed.AddJsonLines(std::string_view(good).substr(off)).ok());

  StreamingInferencer clean;
  ASSERT_TRUE(clean.AddJsonLines(good).ok());
  EXPECT_TRUE(resumed.Snapshot().type->Equals(*clean.Snapshot().type));
  EXPECT_EQ(resumed.record_count(), clean.record_count());
  ExpectSameState(clean, resumed);
  EXPECT_EQ(resumed.ingest_stats().bytes_read, good.size());
}

// The reviewer scenario for abort accounting: checkpoint after an abort,
// resume, checkpoint again mid-stream, crash, resume again. The second
// checkpoint must record the true position — not one inflated by the old
// failing line's length — and recorded errors must keep absolute offsets.
TEST(CheckpointTest, SecondCrashAndResumeAfterAbortStaysExact) {
  std::string good = DatagenJsonl(datagen::DatasetId::kGitHub, 40, 9);
  std::vector<size_t> lines = LineBoundaries(good);
  std::string broken = good;
  size_t bad_at = lines[17];
  broken[bad_at] = '#';

  StreamingInferencer stream;
  ASSERT_FALSE(stream.AddJsonLines(broken).ok());
  auto cp1 = SerializeCheckpoint(stream);
  ASSERT_TRUE(cp1.ok()) << cp1.status();

  // Resume over the unchanged input: the same line aborts again, and its
  // recorded error must carry the absolute stream offset and line number.
  {
    StreamingInferencer again;
    ASSERT_TRUE(RestoreCheckpoint(cp1.value(), &again).ok());
    ASSERT_FALSE(
        again.AddJsonLines(std::string_view(broken).substr(bad_at)).ok());
    ASSERT_EQ(again.ingest_stats().errors.size(), 1u);
    EXPECT_EQ(again.ingest_stats().errors[0].byte_offset, bad_at);
    EXPECT_EQ(again.ingest_stats().errors[0].line_number, 18u);
    EXPECT_EQ(again.ingest_stats().bytes_consumed, bad_at);
  }

  // Resume over the fixed input, but only partway — then checkpoint and
  // "crash". The second resume must pick up at the exact byte.
  StreamingInferencer first;
  ASSERT_TRUE(RestoreCheckpoint(cp1.value(), &first).ok());
  size_t partial = lines[30];
  ASSERT_TRUE(first
                  .AddJsonLines(
                      std::string_view(good).substr(bad_at, partial - bad_at))
                  .ok());
  ASSERT_EQ(first.ingest_stats().bytes_consumed, partial);
  ASSERT_EQ(first.ingest_stats().bytes_read, partial);
  auto cp2 = SerializeCheckpoint(first);
  ASSERT_TRUE(cp2.ok()) << cp2.status();

  StreamingInferencer second;
  ASSERT_TRUE(RestoreCheckpoint(cp2.value(), &second).ok());
  ASSERT_EQ(second.ingest_stats().bytes_consumed, partial);
  ASSERT_TRUE(
      second.AddJsonLines(std::string_view(good).substr(partial)).ok());

  StreamingInferencer clean;
  ASSERT_TRUE(clean.AddJsonLines(good).ok());
  ExpectSameState(clean, second);
  EXPECT_EQ(second.ingest_stats().bytes_read, good.size());
  EXPECT_EQ(second.ingest_stats().lines_read, 40u);
  EXPECT_TRUE(second.ingest_stats().errors.empty());
}

// A resume at a mid-file offset must not treat the first re-read line as the
// stream's first line: an interior UTF-8 BOM stays malformed, exactly as in
// an uninterrupted run.
TEST(CheckpointTest, ResumeDoesNotStripMidStreamBom) {
  const std::string text =
      "{\"a\":1}\n\xEF\xBB\xBF{\"a\":2}\n{\"a\":3}\n";
  StreamingOptions opts;
  opts.on_malformed = json::MalformedLinePolicy::kSkip;

  StreamingInferencer uninterrupted(opts);
  ASSERT_TRUE(uninterrupted.AddJsonLines(text).ok());
  ASSERT_EQ(uninterrupted.malformed_count(), 1u);

  StreamingInferencer first(opts);
  size_t off = text.find('\n') + 1;  // kill right before the BOM line
  ASSERT_TRUE(first.AddJsonLines(std::string_view(text).substr(0, off)).ok());
  auto cp = SerializeCheckpoint(first);
  ASSERT_TRUE(cp.ok()) << cp.status();
  StreamingInferencer resumed(opts);
  ASSERT_TRUE(RestoreCheckpoint(cp.value(), &resumed).ok());
  ASSERT_TRUE(resumed.AddJsonLines(std::string_view(text).substr(off)).ok());
  ExpectSameState(uninterrupted, resumed);
  EXPECT_EQ(resumed.malformed_count(), 1u);
}

TEST(CheckpointTest, EveryBytePrefixTruncationIsDetected) {
  StreamingInferencer stream;
  ASSERT_TRUE(
      stream
          .AddJsonLines(DatagenJsonl(datagen::DatasetId::kNYTimes, 25, 5))
          .ok());
  auto cp = SerializeCheckpoint(stream);
  ASSERT_TRUE(cp.ok()) << cp.status();
  const std::string& full = cp.value();

  for (size_t n = 0; n < full.size(); ++n) {
    StreamingInferencer sink;
    Status st = RestoreCheckpoint(std::string_view(full).substr(0, n), &sink);
    EXPECT_FALSE(st.ok()) << "prefix of " << n << " bytes restored";
  }
  StreamingInferencer whole;
  EXPECT_TRUE(RestoreCheckpoint(full, &whole).ok());
  ExpectSameState(stream, whole);
}

TEST(CheckpointTest, EveryByteCorruptionIsDetected) {
  StreamingInferencer stream;
  ASSERT_TRUE(stream.AddJsonLines("{\"a\":1}\n{\"b\":\"x\"}\n").ok());
  auto cp = SerializeCheckpoint(stream);
  ASSERT_TRUE(cp.ok()) << cp.status();
  std::string bytes = cp.value();
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] ^= 0x01;
    StreamingInferencer sink;
    EXPECT_FALSE(RestoreCheckpoint(bytes, &sink).ok())
        << "flip at byte " << i << " restored";
    bytes[i] ^= 0x01;
  }
}

class CheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "jsonsi_checkpoint_test.ckpt";
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  std::string path_;
};

TEST_F(CheckpointFileTest, SaveLoadRoundTrip) {
  StreamingInferencer stream;
  ASSERT_TRUE(
      stream.AddJsonLines(DatagenJsonl(datagen::DatasetId::kGitHub, 30, 2))
          .ok());
  ASSERT_TRUE(SaveCheckpoint(stream, path_).ok());
  StreamingInferencer loaded;
  ASSERT_TRUE(LoadCheckpoint(path_, &loaded).ok());
  ExpectSameState(stream, loaded);
}

TEST_F(CheckpointFileTest, TruncatedPublishIsDetectedAtLoad) {
  StreamingInferencer stream;
  ASSERT_TRUE(stream.AddJsonLines("{\"a\":1}\n").ok());
  for (size_t cut : {0u, 1u, 40u, 200u}) {
    TornWriteInjector fault;
    fault.truncate_at = cut;
    ASSERT_TRUE(SaveCheckpoint(stream, path_, &fault).ok());
    StreamingInferencer sink;
    EXPECT_FALSE(LoadCheckpoint(path_, &sink).ok())
        << "truncation at " << cut << " loaded";
  }
}

TEST_F(CheckpointFileTest, CorruptedPublishIsDetectedAtLoad) {
  StreamingInferencer stream;
  ASSERT_TRUE(stream.AddJsonLines("{\"a\":1}\n{\"b\":2}\n").ok());
  TornWriteInjector fault;
  fault.corrupt_at = 60;
  ASSERT_TRUE(SaveCheckpoint(stream, path_, &fault).ok());
  StreamingInferencer sink;
  EXPECT_FALSE(LoadCheckpoint(path_, &sink).ok());
}

TEST_F(CheckpointFileTest, CrashBeforeRenameLeavesPreviousCheckpointIntact) {
  StreamingInferencer stream;
  ASSERT_TRUE(stream.AddJsonLines("{\"a\":1}\n").ok());
  ASSERT_TRUE(SaveCheckpoint(stream, path_).ok());

  ASSERT_TRUE(stream.AddJsonLines("{\"b\":2}\n{\"c\":3}\n").ok());
  TornWriteInjector crash;
  crash.fail_before_rename = true;
  EXPECT_FALSE(SaveCheckpoint(stream, path_, &crash).ok());

  // The published file still holds the previous consistent state.
  StreamingInferencer loaded;
  ASSERT_TRUE(LoadCheckpoint(path_, &loaded).ok());
  EXPECT_EQ(loaded.record_count(), 1u);
}

// Checkpoints from older writers carry two keys the current format no
// longer writes: `direct_infer` (the removed DOM/direct text-path switch)
// and `skip_malformed` (the old boolean spelling of kSkip). Both must keep
// restoring, and the restored stream must resume exactly.
TEST(CheckpointTest, CommittedLegacyCheckpointRestoresAndResumes) {
  // 50 GitHub records (datagen seed 42), written by an older writer.
  std::ifstream in(std::string(JSONSI_FUZZ_CORPUS_DIR) +
                       "/checkpoint/seed_valid",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string legacy = buf.str();
  ASSERT_NE(legacy.find("\ndirect_infer 1\n"), std::string::npos);
  ASSERT_NE(legacy.find("\nskip_malformed 0\n"), std::string::npos);

  StreamingInferencer resumed;
  Status restored = RestoreCheckpoint(legacy, &resumed);
  ASSERT_TRUE(restored.ok()) << restored;
  EXPECT_EQ(resumed.options().on_malformed, json::MalformedLinePolicy::kFail);
  const std::string text = DatagenJsonl(datagen::DatasetId::kGitHub, 80, 42);
  ASSERT_EQ(resumed.ingest_stats().bytes_consumed, LineBoundaries(text)[50]);
  ASSERT_TRUE(resumed
                  .AddJsonLines(std::string_view(text).substr(
                      resumed.ingest_stats().bytes_consumed))
                  .ok());

  StreamingInferencer uninterrupted;
  ASSERT_TRUE(uninterrupted.AddJsonLines(text).ok());
  ExpectSameState(uninterrupted, resumed);
}

// A hand-written older-format checkpoint of one record `{"a":1}`, with
// `skip_malformed 1` and the given on_malformed value.
std::string LegacySkipCheckpoint(int on_malformed) {
  const types::TypeRef a_num = types::ParseType("{a: Num}").value();
  auto hex = [](uint64_t v) {
    char out[17];
    std::snprintf(out, sizeof(out), "%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(out, 16);
  };
  std::string text =
      "jsonsi-checkpoint 1\n"
      "count_distinct_types 1\n"
      "direct_infer 0\n"
      "skip_malformed 1\n"
      "on_malformed " + std::to_string(on_malformed) + "\n"
      "max_error_rate 3fe0000000000000\n"  // 0.5
      "min_lines_for_rate 1\n"
      "max_recorded_errors 8\n"
      "max_depth 512\n"
      "max_document_bytes 0\n"
      "soft_memory_limit_bytes 0\n"
      "lines_read 1\n"
      "blank_lines 0\n"
      "records 1\n"
      "malformed_lines 0\n"
      "bytes_read 8\n"
      "bytes_consumed 8\n"
      "record_count 1\n"
      "min_type_size " + std::to_string(a_num->size()) + "\n"
      "max_type_size " + std::to_string(a_num->size()) + "\n"
      "total_type_size " +
      hex(std::bit_cast<uint64_t>(static_cast<double>(a_num->size()))) +
      "\n"
      "memory_degraded 0\n"
      "hash " + hex(a_num->hash()) + "\n"
      "fuser_count 1\n"
      "slot 0 {a: Num}\n"
      "end\n";
  text += "checksum " + hex(HashBytes(text)) + "\n";
  return text;
}

TEST(CheckpointTest, LegacySkipMalformedKeyMeansSkipPolicy) {
  StreamingInferencer resumed;
  Status restored =
      RestoreCheckpoint(LegacySkipCheckpoint(/*kFail=*/0), &resumed);
  ASSERT_TRUE(restored.ok()) << restored;
  EXPECT_EQ(resumed.options().on_malformed, json::MalformedLinePolicy::kSkip);
  EXPECT_EQ(resumed.record_count(), 1u);

  // Resume past a malformed line: skipped, as the legacy switch asked.
  ASSERT_TRUE(resumed.AddJsonLines("not json\n{\"a\":2}\n").ok());
  EXPECT_EQ(resumed.record_count(), 2u);
  EXPECT_EQ(resumed.malformed_count(), 1u);
  EXPECT_EQ(resumed.ingest_stats().errors.at(0).line_number, 2u);
  Schema snapshot = resumed.Snapshot();
  EXPECT_TRUE(snapshot.type->Equals(*types::ParseType("{a: Num}").value()));
  EXPECT_EQ(snapshot.stats.distinct_type_count, 1u);

  // Saved again in the current format: no legacy keys, same policy.
  auto again = SerializeCheckpoint(resumed);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again.value().find("skip_malformed"), std::string::npos);
  EXPECT_EQ(again.value().find("direct_infer"), std::string::npos);
  StreamingInferencer twice;
  ASSERT_TRUE(RestoreCheckpoint(again.value(), &twice).ok());
  EXPECT_EQ(twice.options().on_malformed, json::MalformedLinePolicy::kSkip);

  // An explicit non-default policy wins over the legacy switch.
  StreamingInferencer rate;
  ASSERT_TRUE(RestoreCheckpoint(LegacySkipCheckpoint(/*kFailAboveRate=*/2),
                                &rate)
                  .ok());
  EXPECT_EQ(rate.options().on_malformed,
            json::MalformedLinePolicy::kFailAboveRate);
}

// Satellite: a resumed run is indistinguishable downstream — registering
// its schema in a SchemaRepository yields the same version and diff history
// as the uninterrupted run, byte for byte in the persisted form.
TEST(CheckpointTest, RepositoryInteropMatchesUninterruptedRun) {
  const std::string batch1 = DatagenJsonl(datagen::DatasetId::kGitHub, 60, 7);
  const std::string batch2 =
      DatagenJsonl(datagen::DatasetId::kTwitter, 60, 8);

  // Uninterrupted: two batches into a repository.
  repository::SchemaRepository repo_full;
  {
    StreamingInferencer s;
    ASSERT_TRUE(s.AddJsonLines(batch1).ok());
    ASSERT_TRUE(
        repo_full.RegisterBatch("events", s.Snapshot().type, 60).ok());
    ASSERT_TRUE(s.AddJsonLines(batch2).ok());
    ASSERT_TRUE(
        repo_full.RegisterBatch("events", s.Snapshot().type, 60).ok());
  }

  // Interrupted: killed mid-batch2 and resumed from the checkpoint.
  repository::SchemaRepository repo_resumed;
  {
    StreamingInferencer s;
    ASSERT_TRUE(s.AddJsonLines(batch1).ok());
    ASSERT_TRUE(
        repo_resumed.RegisterBatch("events", s.Snapshot().type, 60).ok());
    size_t half = LineBoundaries(batch2)[30];
    ASSERT_TRUE(
        s.AddJsonLines(std::string_view(batch2).substr(0, half)).ok());
    auto cp = SerializeCheckpoint(s);
    ASSERT_TRUE(cp.ok()) << cp.status();
    StreamingInferencer resumed;
    ASSERT_TRUE(RestoreCheckpoint(cp.value(), &resumed).ok());
    size_t off = resumed.ingest_stats().bytes_consumed -
                 batch1.size();  // offset within batch2
    ASSERT_TRUE(
        resumed.AddJsonLines(std::string_view(batch2).substr(off)).ok());
    ASSERT_TRUE(
        repo_resumed.RegisterBatch("events", resumed.Snapshot().type, 60)
            .ok());
  }

  EXPECT_EQ(repo_full.Serialize(), repo_resumed.Serialize());
  EXPECT_EQ(repo_full.Current("events")->version,
            repo_resumed.Current("events")->version);
  EXPECT_EQ(repo_full.LatestDrift("events").size(),
            repo_resumed.LatestDrift("events").size());
}

}  // namespace
}  // namespace jsonsi::core
