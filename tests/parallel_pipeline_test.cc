// Determinism tests for the parallel end-to-end pipeline.
//
// The contract (core/schema_inferencer.h): for every thread count, partition
// count, and chunk count, the parallel pipeline produces a schema
// *structurally identical* to the serial num_threads == 1 path — the
// practical consequence of Fuse's associativity/commutativity (Theorems
// 5.4/5.5). Checked here over all four synthetic dataset generators, through
// both the value-level and the text-level (chunk-parallel ingestion) entry
// points, including degraded-mode aborts, plus the streaming inferencer's
// parallel feed.

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/schema_inferencer.h"
#include "core/streaming_inferencer.h"
#include "datagen/generator.h"
#include "engine/parallel_reduce.h"
#include "engine/thread_pool.h"
#include "json/jsonl.h"
#include "json/serializer.h"
#include "types/type.h"

namespace jsonsi {
namespace {

using core::InferenceOptions;
using core::Schema;
using core::SchemaInferencer;
using core::StreamingInferencer;
using core::StreamingOptions;

// ------------------------------------------------------ ParallelTreeReduce

TEST(ParallelTreeReduceTest, MatchesSerialFoldForManySizes) {
  engine::ThreadPool pool(4);
  for (size_t n = 0; n <= 33; ++n) {
    std::vector<int> items(n);
    std::iota(items.begin(), items.end(), 1);
    int expected = std::accumulate(items.begin(), items.end(), 0);
    size_t rounds = 0;
    int got = engine::ParallelTreeReduce(
        pool, items, 0, [](int a, int b) { return a + b; }, &rounds);
    EXPECT_EQ(got, expected) << "n=" << n;
    size_t expected_rounds = 0;
    for (size_t m = n; m > 1; m = (m + 1) / 2) ++expected_rounds;
    EXPECT_EQ(rounds, expected_rounds) << "n=" << n;
  }
}

TEST(ParallelTreeReduceTest, EmptyReturnsIdentity) {
  engine::ThreadPool pool(2);
  EXPECT_EQ(engine::ParallelTreeReduce(pool, std::vector<int>{}, 42,
                                       [](int a, int b) { return a + b; }),
            42);
}

TEST(ParallelTreeReduceTest, PreservesPairwiseBracketing) {
  // A non-commutative combiner (string concatenation) still reduces in the
  // documented fixed bracketing, so the result is deterministic.
  engine::ThreadPool pool(4);
  std::vector<std::string> items = {"a", "b", "c", "d", "e"};
  std::string got = engine::ParallelTreeReduce(
      pool, items, std::string(),
      [](const std::string& a, const std::string& b) { return a + b; });
  EXPECT_EQ(got, "abcde");
}

// ------------------------------------------------------------ batch parity

std::vector<json::ValueRef> GenerateValues(datagen::DatasetId id, size_t n) {
  auto gen = datagen::MakeGenerator(id, /*seed=*/7);
  std::vector<json::ValueRef> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) values.push_back(gen->Generate(i));
  return values;
}

InferenceOptions Threads(size_t n) {
  InferenceOptions o;
  o.num_threads = n;
  o.parallel_ingest_min_bytes = 0;  // exercise chunked ingestion on any size
  return o;
}

void ExpectSchemasIdentical(const Schema& serial, const Schema& parallel) {
  ASSERT_TRUE(serial.type && parallel.type);
  EXPECT_TRUE(types::TypeEquals(serial.type, parallel.type))
      << "serial:   " << serial.ToString() << "\n"
      << "parallel: " << parallel.ToString();
  EXPECT_EQ(serial.stats.record_count, parallel.stats.record_count);
  EXPECT_EQ(serial.stats.distinct_type_count,
            parallel.stats.distinct_type_count);
  EXPECT_EQ(serial.stats.min_type_size, parallel.stats.min_type_size);
  EXPECT_EQ(serial.stats.max_type_size, parallel.stats.max_type_size);
  EXPECT_DOUBLE_EQ(serial.stats.avg_type_size, parallel.stats.avg_type_size);
}

TEST(ParallelPipelineTest, AllGeneratorsMatchSerialAcrossThreadCounts) {
  const datagen::DatasetId ids[] = {
      datagen::DatasetId::kGitHub, datagen::DatasetId::kTwitter,
      datagen::DatasetId::kWikidata, datagen::DatasetId::kNYTimes};
  for (datagen::DatasetId id : ids) {
    auto values = GenerateValues(id, 200);
    Schema serial = SchemaInferencer(Threads(1)).InferFromValues(values);
    for (size_t threads : {2, 3, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      Schema parallel =
          SchemaInferencer(Threads(threads)).InferFromValues(values);
      ExpectSchemasIdentical(serial, parallel);
    }
  }
}

TEST(ParallelPipelineTest, PartitionCountDoesNotChangeResult) {
  auto values = GenerateValues(datagen::DatasetId::kTwitter, 100);
  Schema serial = SchemaInferencer(Threads(1)).InferFromValues(values);
  for (size_t partitions : {1, 2, 3, 7, 64, 1000}) {
    SCOPED_TRACE("partitions=" + std::to_string(partitions));
    InferenceOptions o = Threads(4);
    o.num_partitions = partitions;
    Schema parallel = SchemaInferencer(o).InferFromValues(values);
    ExpectSchemasIdentical(serial, parallel);
  }
}

TEST(ParallelPipelineTest, EmptyAndTinyInputs) {
  for (size_t n : {0, 1, 2, 3}) {
    auto values = GenerateValues(datagen::DatasetId::kGitHub, n);
    Schema serial = SchemaInferencer(Threads(1)).InferFromValues(values);
    Schema parallel = SchemaInferencer(Threads(4)).InferFromValues(values);
    ASSERT_TRUE(serial.type && parallel.type);
    EXPECT_TRUE(types::TypeEquals(serial.type, parallel.type)) << "n=" << n;
    EXPECT_EQ(parallel.stats.record_count, n);
  }
}

// ------------------------------------------- text entry point (chunked I/O)

TEST(ParallelPipelineTest, JsonLinesEntryPointMatchesSerial) {
  const datagen::DatasetId ids[] = {
      datagen::DatasetId::kGitHub, datagen::DatasetId::kTwitter,
      datagen::DatasetId::kWikidata, datagen::DatasetId::kNYTimes};
  for (datagen::DatasetId id : ids) {
    std::string text = json::ToJsonLines(GenerateValues(id, 150));
    json::IngestStats serial_stats, parallel_stats;
    auto serial =
        SchemaInferencer(Threads(1)).InferFromJsonLines(text, &serial_stats);
    auto parallel =
        SchemaInferencer(Threads(4)).InferFromJsonLines(text, &parallel_stats);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    ExpectSchemasIdentical(serial.value(), parallel.value());
    EXPECT_EQ(serial_stats.records, parallel_stats.records);
    EXPECT_EQ(serial_stats.lines_read, parallel_stats.lines_read);
    EXPECT_EQ(serial_stats.bytes_read, parallel_stats.bytes_read);
  }
}

TEST(ParallelPipelineTest, DegradedModeAbortMatchesSerial) {
  // kFail must abort with the identical message and ingestion report
  // whichever chunk the bad line lands in.
  std::string text;
  for (int i = 0; i < 50; ++i) text += "{\"n\":" + std::to_string(i) + "}\n";
  text += "definitely not json\n";
  for (int i = 0; i < 50; ++i) text += "{\"n\":" + std::to_string(i) + "}\n";

  json::IngestStats serial_stats, parallel_stats;
  auto serial =
      SchemaInferencer(Threads(1)).InferFromJsonLines(text, &serial_stats);
  auto parallel =
      SchemaInferencer(Threads(4)).InferFromJsonLines(text, &parallel_stats);
  ASSERT_FALSE(serial.ok());
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(serial.status().ToString(), parallel.status().ToString());
  EXPECT_EQ(serial_stats.records, parallel_stats.records);
  EXPECT_EQ(serial_stats.malformed_lines, parallel_stats.malformed_lines);
  EXPECT_EQ(serial_stats.bytes_read, parallel_stats.bytes_read);
}

TEST(ParallelPipelineTest, SkipPolicyMatchesSerialOnDirtyInput) {
  std::string text = "\xEF\xBB\xBF";  // BOM + CRLF + dirt, the works
  for (int i = 0; i < 30; ++i) {
    text += "{\"n\":" + std::to_string(i) + "}\r\n";
    if (i % 7 == 0) text += "dirt\r\n";
    if (i % 11 == 0) text += "\r\n";
  }
  InferenceOptions serial_o = Threads(1);
  serial_o.ingest.on_malformed = json::MalformedLinePolicy::kSkip;
  InferenceOptions parallel_o = Threads(5);
  parallel_o.ingest.on_malformed = json::MalformedLinePolicy::kSkip;

  json::IngestStats serial_stats, parallel_stats;
  auto serial =
      SchemaInferencer(serial_o).InferFromJsonLines(text, &serial_stats);
  auto parallel =
      SchemaInferencer(parallel_o).InferFromJsonLines(text, &parallel_stats);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectSchemasIdentical(serial.value(), parallel.value());
  EXPECT_EQ(serial_stats.malformed_lines, parallel_stats.malformed_lines);
  EXPECT_EQ(serial_stats.blank_lines, parallel_stats.blank_lines);
}

// ------------------------------------------------------ streaming parallel

TEST(StreamingParallelTest, MatchesSerialFeed) {
  StreamingOptions o;
  std::string batch1 = json::ToJsonLines(
      GenerateValues(datagen::DatasetId::kGitHub, 80));
  std::string batch2 = json::ToJsonLines(
      GenerateValues(datagen::DatasetId::kTwitter, 80));

  StreamingInferencer serial(o), parallel(o);
  ASSERT_TRUE(serial.AddJsonLines(batch1).ok());
  ASSERT_TRUE(serial.AddJsonLines(batch2).ok());
  ASSERT_TRUE(parallel.AddJsonLinesParallel(batch1, 4).ok());
  ASSERT_TRUE(parallel.AddJsonLinesParallel(batch2, 4).ok());

  EXPECT_EQ(serial.record_count(), parallel.record_count());
  Schema ss = serial.Snapshot();
  Schema ps = parallel.Snapshot();
  EXPECT_TRUE(types::TypeEquals(ss.type, ps.type));
  EXPECT_EQ(ss.stats.distinct_type_count, ps.stats.distinct_type_count);
  EXPECT_EQ(ss.stats.min_type_size, ps.stats.min_type_size);
  EXPECT_EQ(ss.stats.max_type_size, ps.stats.max_type_size);
  EXPECT_DOUBLE_EQ(ss.stats.avg_type_size, ps.stats.avg_type_size);
  // Ingestion reports agree too.
  EXPECT_EQ(serial.ingest_stats().lines_read,
            parallel.ingest_stats().lines_read);
  EXPECT_EQ(serial.ingest_stats().records, parallel.ingest_stats().records);
  EXPECT_EQ(serial.ingest_stats().bytes_read,
            parallel.ingest_stats().bytes_read);
}

TEST(StreamingParallelTest, RateAbortMatchesSerialAcrossBuffers) {
  StreamingOptions o;
  o.on_malformed = json::MalformedLinePolicy::kFailAboveRate;
  o.max_error_rate = 0.2;
  o.min_lines_for_rate = 10;
  std::string clean;
  for (int i = 0; i < 20; ++i) clean += "{\"n\":" + std::to_string(i) + "}\n";
  std::string dirty;
  for (int i = 0; i < 10; ++i) dirty += "junk-" + std::to_string(i) + "\n";

  StreamingInferencer serial(o), parallel(o);
  ASSERT_TRUE(serial.AddJsonLines(clean).ok());
  ASSERT_TRUE(parallel.AddJsonLinesParallel(clean, 4).ok());
  Status serial_st = serial.AddJsonLines(dirty);
  Status parallel_st = parallel.AddJsonLinesParallel(dirty, 4);
  ASSERT_FALSE(serial_st.ok());
  ASSERT_FALSE(parallel_st.ok());
  EXPECT_EQ(serial_st.ToString(), parallel_st.ToString());
  EXPECT_EQ(serial.record_count(), parallel.record_count());
  EXPECT_EQ(serial.ingest_stats().malformed_lines,
            parallel.ingest_stats().malformed_lines);
  EXPECT_TRUE(
      types::TypeEquals(serial.Snapshot().type, parallel.Snapshot().type));
}

TEST(StreamingParallelTest, ZeroAndOneThreadFallBackToSerial) {
  std::string text = "{\"a\":1}\n{\"a\":2}\n";
  StreamingInferencer a, b, c;
  ASSERT_TRUE(a.AddJsonLines(text).ok());
  ASSERT_TRUE(b.AddJsonLinesParallel(text, 1).ok());
  ASSERT_TRUE(c.AddJsonLinesParallel(text, 0).ok());  // hw concurrency
  EXPECT_TRUE(types::TypeEquals(a.Snapshot().type, b.Snapshot().type));
  EXPECT_TRUE(types::TypeEquals(a.Snapshot().type, c.Snapshot().type));
  EXPECT_EQ(a.record_count(), b.record_count());
  EXPECT_EQ(a.record_count(), c.record_count());
}

}  // namespace
}  // namespace jsonsi
