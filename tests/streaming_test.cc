// Tests for the push-based StreamingInferencer: snapshot exactness vs the
// batch pipeline, mid-stream snapshots, shard merging, malformed handling,
// and the optional profiler.

#include <gtest/gtest.h>

#include "core/streaming_inferencer.h"
#include "datagen/generator.h"
#include "json/serializer.h"
#include "random_value_gen.h"
#include "types/type_parser.h"

namespace jsonsi::core {
namespace {

types::TypeRef T(std::string_view text) {
  auto r = types::ParseType(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.value();
}

TEST(StreamingTest, EmptySnapshot) {
  StreamingInferencer streaming;
  Schema snapshot = streaming.Snapshot();
  EXPECT_TRUE(snapshot.type->is_empty());
  EXPECT_EQ(snapshot.stats.record_count, 0u);
}

TEST(StreamingTest, SnapshotEqualsBatchPipeline) {
  auto values = jsonsi::testing::RandomValues(11, 150);
  StreamingInferencer streaming;
  for (const auto& v : values) streaming.AddValue(v);
  Schema stream_schema = streaming.Snapshot();
  Schema batch_schema = SchemaInferencer().InferFromValues(values);
  EXPECT_TRUE(stream_schema.type->Equals(*batch_schema.type));
  EXPECT_EQ(stream_schema.stats.record_count,
            batch_schema.stats.record_count);
  EXPECT_EQ(stream_schema.stats.distinct_type_count,
            batch_schema.stats.distinct_type_count);
  EXPECT_EQ(stream_schema.stats.min_type_size,
            batch_schema.stats.min_type_size);
  EXPECT_EQ(stream_schema.stats.max_type_size,
            batch_schema.stats.max_type_size);
  EXPECT_NEAR(stream_schema.stats.avg_type_size,
              batch_schema.stats.avg_type_size, 1e-9);
}

TEST(StreamingTest, SnapshotsDoNotDisturbIngestion) {
  auto values = jsonsi::testing::RandomValues(13, 60);
  StreamingInferencer streaming;
  StreamingInferencer uninterrupted;
  for (size_t i = 0; i < values.size(); ++i) {
    streaming.AddValue(values[i]);
    uninterrupted.AddValue(values[i]);
    if (i % 7 == 0) (void)streaming.Snapshot();  // snapshot mid-stream
  }
  EXPECT_TRUE(
      streaming.Snapshot().type->Equals(*uninterrupted.Snapshot().type));
}

TEST(StreamingTest, AddJsonAndJsonLines) {
  StreamingInferencer streaming;
  ASSERT_TRUE(streaming.AddJson(R"({"a": 1})").ok());
  ASSERT_TRUE(streaming.AddJsonLines("{\"a\": \"s\"}\n\n{\"b\": true}\n").ok());
  EXPECT_EQ(streaming.record_count(), 3u);
  EXPECT_TRUE(streaming.Snapshot().type->Equals(
      *T("{a: (Num + Str)?, b: Bool?}")));
}

TEST(StreamingTest, MalformedFailsByDefault) {
  StreamingInferencer streaming;
  EXPECT_FALSE(streaming.AddJson("{oops").ok());
  EXPECT_FALSE(streaming.AddJsonLines("{\"a\":1}\nbad\n").ok());
}

TEST(StreamingTest, SkipMalformedCountsAndContinues) {
  StreamingOptions opts;
  opts.on_malformed = json::MalformedLinePolicy::kSkip;
  StreamingInferencer streaming(opts);
  ASSERT_TRUE(streaming.AddJsonLines("{\"a\":1}\nbad line\n{\"a\":2}\n").ok());
  EXPECT_EQ(streaming.record_count(), 2u);
  EXPECT_EQ(streaming.malformed_count(), 1u);
  EXPECT_TRUE(streaming.Snapshot().type->Equals(*T("{a: Num}")));
}

TEST(StreamingTest, ExplicitPolicyAndCumulativeIngestStats) {
  StreamingOptions opts;
  opts.on_malformed = json::MalformedLinePolicy::kSkip;
  StreamingInferencer streaming(opts);
  // Stats accumulate coherently across documents and chunked line feeds.
  ASSERT_TRUE(streaming.AddJson("{\"a\":1}").ok());
  ASSERT_TRUE(streaming.AddJson("{nope").ok());  // skipped, not fatal
  ASSERT_TRUE(streaming.AddJsonLines("bad\n{\"a\":2}\n").ok());
  ASSERT_TRUE(streaming.AddJsonLines("{\"a\":3}\n").ok());
  const auto& stats = streaming.ingest_stats();
  EXPECT_EQ(stats.lines_read, 5u);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.malformed_lines, 2u);
  ASSERT_EQ(stats.errors.size(), 2u);
  EXPECT_EQ(stats.errors[0].line_number, 2u);  // the bad document
  EXPECT_EQ(stats.errors[1].line_number, 3u);  // "bad" in the first chunk
  EXPECT_EQ(streaming.record_count(), 3u);
}

TEST(StreamingTest, FailAboveRatePolicyAbortsOnGarbageStream) {
  StreamingOptions opts;
  opts.on_malformed = json::MalformedLinePolicy::kFailAboveRate;
  opts.max_error_rate = 0.10;
  opts.min_lines_for_rate = 4;
  StreamingInferencer streaming(opts);
  Status st = streaming.AddJsonLines("{\"a\":1}\nbad\n{\"a\":2}\nworse\n");
  EXPECT_FALSE(st.ok());
  EXPECT_GT(streaming.malformed_count(), 0u);
  // The report still covers the aborted chunk.
  EXPECT_GE(streaming.ingest_stats().lines_read, 2u);
}

TEST(StreamingTest, FailAboveRatePolicyIsCumulativeAcrossChunks) {
  StreamingOptions opts;
  opts.on_malformed = json::MalformedLinePolicy::kFailAboveRate;
  opts.max_error_rate = 0.10;
  opts.min_lines_for_rate = 4;
  StreamingInferencer streaming(opts);
  // 40 clean lines first: the stream is established as healthy.
  std::string clean;
  for (int i = 0; i < 40; ++i) clean += "{\"a\":" + std::to_string(i) + "}\n";
  ASSERT_TRUE(streaming.AddJsonLines(clean).ok());
  // A tiny late chunk that is 50% garbage locally but leaves the cumulative
  // rate at 1/42 ~ 2.4% — well under the 10% tolerance. Per-chunk rate
  // accounting would abort here; cumulative accounting must not.
  EXPECT_TRUE(streaming.AddJsonLines("bad\n{\"a\":40}\n").ok());
  EXPECT_EQ(streaming.record_count(), 41u);
  EXPECT_EQ(streaming.malformed_count(), 1u);

  // The policy still trips once the *cumulative* rate is exceeded, even when
  // the garbage arrives spread over many small chunks.
  Status st = Status::OK();
  for (int i = 0; i < 10 && st.ok(); ++i) {
    st = streaming.AddJsonLines("nope\n");
  }
  EXPECT_FALSE(st.ok());
  EXPECT_GT(streaming.malformed_count(), 1u);
}

TEST(StreamingTest, MinLinesForRateCountsAcrossChunks) {
  StreamingOptions opts;
  opts.on_malformed = json::MalformedLinePolicy::kFailAboveRate;
  opts.max_error_rate = 0.10;
  opts.min_lines_for_rate = 100;
  StreamingInferencer streaming(opts);
  // 95 clean lines, then an all-garbage chunk of 20. The second chunk alone
  // never reaches min_lines_for_rate (20 < 100), but the cumulative stream
  // crosses 100 non-blank lines five garbage lines in, so the mid-line rate
  // check engages and aborts before the whole chunk is consumed — chunk-local
  // accounting would only notice at end of chunk, after swallowing all 20.
  std::string clean;
  for (int i = 0; i < 95; ++i) clean += "{\"a\":" + std::to_string(i) + "}\n";
  ASSERT_TRUE(streaming.AddJsonLines(clean).ok());
  std::string garbage;
  for (int i = 0; i < 20; ++i) garbage += "not json\n";
  EXPECT_FALSE(streaming.AddJsonLines(garbage).ok());
  EXPECT_LT(streaming.malformed_count(), 20u);
  EXPECT_EQ(streaming.record_count(), 95u);
}

TEST(StreamingTest, MergeConcatenatesIngestReports) {
  StreamingOptions opts;
  opts.on_malformed = json::MalformedLinePolicy::kSkip;
  StreamingInferencer a(opts), b(opts);
  ASSERT_TRUE(a.AddJsonLines("{\"x\":1}\n{\"x\":2}\n").ok());
  ASSERT_TRUE(b.AddJsonLines("junk\n{\"x\":3}\n").ok());
  a.Merge(b);
  EXPECT_EQ(a.record_count(), 3u);
  EXPECT_EQ(a.malformed_count(), 1u);
  ASSERT_EQ(a.ingest_stats().errors.size(), 1u);
  // b's line 1 lands after a's two lines in the concatenated report.
  EXPECT_EQ(a.ingest_stats().errors[0].line_number, 3u);
}

TEST(StreamingTest, ShardMergeEqualsSingleStream) {
  auto values = jsonsi::testing::RandomValues(17, 90);
  StreamingInferencer whole;
  for (const auto& v : values) whole.AddValue(v);

  StreamingInferencer shard_a, shard_b, shard_c;
  for (size_t i = 0; i < 30; ++i) shard_a.AddValue(values[i]);
  for (size_t i = 30; i < 60; ++i) shard_b.AddValue(values[i]);
  for (size_t i = 60; i < 90; ++i) shard_c.AddValue(values[i]);
  shard_a.Merge(shard_b);
  shard_a.Merge(shard_c);

  Schema merged = shard_a.Snapshot();
  Schema single = whole.Snapshot();
  EXPECT_TRUE(merged.type->Equals(*single.type));
  EXPECT_EQ(merged.stats.record_count, single.stats.record_count);
  EXPECT_EQ(merged.stats.distinct_type_count,
            single.stats.distinct_type_count);
  EXPECT_EQ(merged.stats.min_type_size, single.stats.min_type_size);
  EXPECT_EQ(merged.stats.max_type_size, single.stats.max_type_size);
  EXPECT_NEAR(merged.stats.avg_type_size, single.stats.avg_type_size, 1e-9);
}

TEST(StreamingTest, MergeIntoEmpty) {
  StreamingInferencer empty;
  StreamingInferencer full;
  full.AddValue(jsonsi::testing::RandomValue(3));
  empty.Merge(full);
  EXPECT_EQ(empty.record_count(), 1u);
  EXPECT_TRUE(empty.Snapshot().type->Equals(*full.Snapshot().type));
}

TEST(StreamingTest, IngestionContinuesAfterMerge) {
  StreamingInferencer a, b;
  ASSERT_TRUE(a.AddJson(R"({"x": 1})").ok());
  ASSERT_TRUE(b.AddJson(R"({"y": "s"})").ok());
  a.Merge(b);
  ASSERT_TRUE(a.AddJson(R"({"z": true})").ok());
  EXPECT_TRUE(a.Snapshot().type->Equals(*T("{x: Num?, y: Str?, z: Bool?}")));
}

TEST(StreamingTest, DistinctCountingCanBeDisabled) {
  StreamingOptions opts;
  opts.count_distinct_types = false;
  StreamingInferencer streaming(opts);
  ASSERT_TRUE(streaming.AddJson(R"({"a": 1})").ok());
  EXPECT_EQ(streaming.Snapshot().stats.distinct_type_count, 0u);
}

TEST(StreamingTest, MemoryWatermarkDegradesWithoutChangingSchema) {
  auto gen = datagen::MakeGenerator(datagen::DatasetId::kGitHub, 21);
  std::string jsonl;
  for (uint64_t i = 0; i < 800; ++i) {
    jsonl += json::ToJson(gen->Generate(i));
    jsonl += '\n';
  }

  StreamingInferencer unlimited;
  ASSERT_TRUE(unlimited.AddJsonLines(jsonl).ok());
  EXPECT_FALSE(unlimited.memory_degraded());

  StreamingOptions tight;
  tight.soft_memory_limit_bytes = 1;  // force shedding immediately
  StreamingInferencer degraded(tight);
  ASSERT_TRUE(degraded.AddJsonLines(jsonl).ok());
  EXPECT_TRUE(degraded.memory_degraded());

  // Shedding touches only auxiliary structures: the inferred schema and the
  // record count are untouched; the distinct count becomes a lower bound.
  Schema full = unlimited.Snapshot();
  Schema shed = degraded.Snapshot();
  EXPECT_TRUE(shed.type->Equals(*full.type));
  EXPECT_EQ(shed.stats.record_count, full.stats.record_count);
  EXPECT_LE(shed.stats.distinct_type_count, full.stats.distinct_type_count);

  // The parallel path degrades and converges to the same schema too.
  StreamingInferencer parallel_degraded(tight);
  ASSERT_TRUE(parallel_degraded.AddJsonLinesParallel(jsonl, 4).ok());
  EXPECT_TRUE(parallel_degraded.memory_degraded());
  EXPECT_TRUE(parallel_degraded.Snapshot().type->Equals(*full.type));
}

TEST(StreamingTest, BytesConsumedTracksIngestion) {
  StreamingInferencer streaming;
  const std::string jsonl = "{\"a\":1}\n{\"a\":2}\n";
  ASSERT_TRUE(streaming.AddJsonLines(jsonl).ok());
  EXPECT_EQ(streaming.ingest_stats().bytes_consumed, jsonl.size());
  EXPECT_EQ(streaming.ingest_stats().bytes_read, jsonl.size());
}

TEST(StreamingTest, MidStreamBomMatchesOneShotHoweverBatched) {
  // A UTF-8 BOM is tolerated on the stream's first line only. A batched
  // feed must agree: the first line of a follow-up batch is an interior
  // line, so its BOM makes it malformed exactly as in a one-shot read.
  const std::string batch1 = "\xEF\xBB\xBF{\"a\":1}\n{\"a\":2}\n";
  const std::string batch2 = "\xEF\xBB\xBF{\"a\":3}\n{\"a\":4}\n";
  StreamingOptions opts;
  opts.on_malformed = json::MalformedLinePolicy::kSkip;

  StreamingInferencer one_shot(opts);
  ASSERT_TRUE(one_shot.AddJsonLines(batch1 + batch2).ok());
  EXPECT_EQ(one_shot.record_count(), 3u);  // line 1's BOM stripped, line 3's
  EXPECT_EQ(one_shot.malformed_count(), 1u);  // not

  StreamingInferencer batched(opts);
  ASSERT_TRUE(batched.AddJsonLines(batch1).ok());
  ASSERT_TRUE(batched.AddJsonLines(batch2).ok());
  EXPECT_EQ(batched.record_count(), one_shot.record_count());
  EXPECT_EQ(batched.malformed_count(), one_shot.malformed_count());
  EXPECT_TRUE(batched.Snapshot().type->Equals(*one_shot.Snapshot().type));

  StreamingInferencer parallel(opts);
  ASSERT_TRUE(parallel.AddJsonLines(batch1).ok());
  ASSERT_TRUE(parallel.AddJsonLinesParallel(batch2, 4).ok());
  EXPECT_EQ(parallel.record_count(), one_shot.record_count());
  EXPECT_EQ(parallel.malformed_count(), one_shot.malformed_count());
  EXPECT_TRUE(parallel.Snapshot().type->Equals(*one_shot.Snapshot().type));
}

TEST(StreamingTest, WorksAtDatasetScale) {
  auto gen = datagen::MakeGenerator(datagen::DatasetId::kTwitter, 9);
  StreamingInferencer streaming;
  for (uint64_t i = 0; i < 2000; ++i) streaming.AddValue(gen->Generate(i));
  Schema snapshot = streaming.Snapshot();
  EXPECT_EQ(snapshot.stats.record_count, 2000u);
  EXPECT_GT(snapshot.stats.distinct_type_count, 100u);
  EXPECT_TRUE(snapshot.type->is_record());
}

}  // namespace
}  // namespace jsonsi::core
