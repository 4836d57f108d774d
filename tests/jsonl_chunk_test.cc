// Tests for chunked JSON-Lines ingestion (json/jsonl_chunk.h, with the
// chunk worker inference::InferJsonLinesChunk).
//
// The load-bearing property is *serial equivalence*: for any buffer, any
// chunk count, and any MalformedLinePolicy, the split/type/replay pipeline
// must return the same status, the same IngestStats — byte offsets, line
// numbers, recorded errors — as one serial DOM read (ReadJsonLines) of the
// whole buffer, and keep exactly the types InferType gives the values that
// read delivers. The differential harness below checks exactly that
// over a gallery of adversarial inputs (CRLF pairs straddling chunk
// boundaries, BOM, blank runs, malformed lines at boundaries, no trailing
// newline) crossed with every policy and chunk counts 1..8.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "inference/direct_infer.h"
#include "inference/infer.h"
#include "json/jsonl.h"
#include "json/jsonl_chunk.h"
#include "types/type.h"

namespace jsonsi::json {
namespace {

using inference::InferJsonLinesChunk;
using inference::ReplayChunkPolicy;
using inference::TakeIncludedTypes;
using inference::TypedChunkOutcome;

// Types every chunk of `text` as cut by SplitJsonLines(text, max_chunks).
std::vector<TypedChunkOutcome> InferChunks(std::string_view text,
                                           size_t max_chunks,
                                           const IngestOptions& options) {
  auto spans = SplitJsonLines(text, max_chunks);
  std::vector<TypedChunkOutcome> outcomes;
  outcomes.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    outcomes.push_back(InferJsonLinesChunk(
        text.substr(spans[i].begin, spans[i].size()), options.parse,
        options.max_recorded_errors, i == 0));
  }
  return outcomes;
}

// ---------------------------------------------------------------- splitter

void CheckSpanInvariants(std::string_view text, size_t max_chunks) {
  auto spans = SplitJsonLines(text, max_chunks);
  if (text.empty()) {
    EXPECT_TRUE(spans.empty());
    return;
  }
  ASSERT_FALSE(spans.empty());
  EXPECT_LE(spans.size(), std::max<size_t>(1, max_chunks));
  EXPECT_EQ(spans.front().begin, 0u);
  EXPECT_EQ(spans.back().end, text.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_LT(spans[i].begin, spans[i].end) << "empty span " << i;
    if (i > 0) {
      EXPECT_EQ(spans[i].begin, spans[i - 1].end) << "gap at " << i;
    }
    // Every internal boundary sits just after a '\n' — no line or CRLF
    // pair is ever split.
    if (i + 1 < spans.size()) {
      EXPECT_EQ(text[spans[i].end - 1], '\n') << "mid-line cut at " << i;
    }
  }
}

TEST(SplitJsonLinesTest, EmptyInputYieldsNoSpans) {
  EXPECT_TRUE(SplitJsonLines("", 4).empty());
}

TEST(SplitJsonLinesTest, SingleChunkCoversEverything) {
  auto spans = SplitJsonLines("1\n2\n3\n", 1);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].begin, 0u);
  EXPECT_EQ(spans[0].end, 6u);
}

TEST(SplitJsonLinesTest, InvariantsAcrossShapes) {
  const std::string crlf_heavy =
      "{\"a\":1}\r\n{\"a\":22}\r\n{\"a\":333}\r\n{\"a\":4444}\r\n";
  const std::string inputs[] = {
      "1\n2\n3\n4\n5\n6\n7\n8\n",
      "1\n2\n3\n4\n5\n6\n7\n8",        // no trailing newline
      crlf_heavy,
      "single line without newline",
      "\n\n\n\n",
      std::string(1000, 'x') + "\n1\n", // one huge line up front
      "1\n" + std::string(1000, 'x'),   // one huge line at the end
  };
  for (const std::string& text : inputs) {
    for (size_t chunks = 1; chunks <= 9; ++chunks) {
      SCOPED_TRACE("chunks=" + std::to_string(chunks));
      CheckSpanInvariants(text, chunks);
    }
  }
}

TEST(SplitJsonLinesTest, NeverSplitsCrlfPairs) {
  // Line lengths tuned so naive byte targets land between '\r' and '\n'.
  std::string text;
  for (int i = 0; i < 40; ++i) {
    text += "{\"k\":" + std::string(1 + i % 7, '1') + "}\r\n";
  }
  for (size_t chunks = 2; chunks <= 16; ++chunks) {
    auto spans = SplitJsonLines(text, chunks);
    for (size_t i = 0; i + 1 < spans.size(); ++i) {
      ASSERT_EQ(text[spans[i].end - 1], '\n');
      ASSERT_NE(text[spans[i].end], '\n');  // next chunk starts a real line
    }
  }
}

// ---------------------------------------------------- differential harness

void ExpectSameStats(const IngestStats& serial, const IngestStats& chunked) {
  EXPECT_EQ(serial.lines_read, chunked.lines_read);
  EXPECT_EQ(serial.blank_lines, chunked.blank_lines);
  EXPECT_EQ(serial.records, chunked.records);
  EXPECT_EQ(serial.malformed_lines, chunked.malformed_lines);
  EXPECT_EQ(serial.bytes_read, chunked.bytes_read);
  EXPECT_EQ(serial.bytes_consumed, chunked.bytes_consumed);
  ASSERT_EQ(serial.errors.size(), chunked.errors.size());
  for (size_t i = 0; i < serial.errors.size(); ++i) {
    EXPECT_EQ(serial.errors[i].line_number, chunked.errors[i].line_number);
    EXPECT_EQ(serial.errors[i].byte_offset, chunked.errors[i].byte_offset);
    EXPECT_EQ(serial.errors[i].message, chunked.errors[i].message);
  }
}

// Runs the chunked pipeline and the serial reader over `text` and asserts
// they are indistinguishable: status (including message), stats, and the
// kept types (InferType of each delivered value).
void ExpectChunkedMatchesSerial(std::string_view text, size_t max_chunks,
                                const IngestOptions& options) {
  IngestStats serial_stats;
  std::vector<ValueRef> serial_values;
  Status serial_status = ReadJsonLines(
      text,
      [&](ValueRef v) {
        serial_values.push_back(std::move(v));
        return true;
      },
      options, &serial_stats);

  std::vector<TypedChunkOutcome> outcomes =
      InferChunks(text, max_chunks, options);
  IngestStats chunk_stats;
  ChunkReplay replay = ReplayChunkPolicy(outcomes, options, &chunk_stats);

  EXPECT_EQ(serial_status.ok(), replay.status.ok());
  EXPECT_EQ(serial_status.ToString(), replay.status.ToString());
  ExpectSameStats(serial_stats, chunk_stats);

  std::vector<types::TypeRef> chunk_types =
      TakeIncludedTypes(std::move(outcomes), replay);
  ASSERT_EQ(serial_values.size(), chunk_types.size());
  for (size_t i = 0; i < serial_values.size(); ++i) {
    EXPECT_TRUE(types::TypeEquals(inference::InferType(*serial_values[i]),
                                  chunk_types[i]))
        << "record " << i;
  }
}

IngestOptions WithPolicy(MalformedLinePolicy policy) {
  IngestOptions o;
  o.on_malformed = policy;
  o.max_error_rate = 0.3;
  o.min_lines_for_rate = 3;
  return o;
}

void RunDifferentialGallery(std::string_view text) {
  const MalformedLinePolicy policies[] = {MalformedLinePolicy::kFail,
                                          MalformedLinePolicy::kSkip,
                                          MalformedLinePolicy::kFailAboveRate};
  for (MalformedLinePolicy policy : policies) {
    for (size_t chunks = 1; chunks <= 8; ++chunks) {
      SCOPED_TRACE("policy=" + std::to_string(static_cast<int>(policy)) +
                   " chunks=" + std::to_string(chunks));
      ExpectChunkedMatchesSerial(text, chunks, WithPolicy(policy));
    }
  }
}

TEST(ChunkedIngestDifferentialTest, CleanInput) {
  RunDifferentialGallery("{\"a\":1}\n{\"a\":2}\n{\"b\":[1,2]}\n\"s\"\nnull\n");
}

TEST(ChunkedIngestDifferentialTest, CrlfAndBom) {
  RunDifferentialGallery(
      "\xEF\xBB\xBF{\"a\":1}\r\n{\"a\":2}\r\n{\"a\":3}\r\n{\"a\":4}\r\n");
}

TEST(ChunkedIngestDifferentialTest, BlankRunsAndNoTrailingNewline) {
  RunDifferentialGallery("1\n\n  \n\t\r\n2\n\n3");
}

TEST(ChunkedIngestDifferentialTest, MalformedEverywhere) {
  // Malformed lines at the start, interior, and final (newline-less) line;
  // every chunk count puts some of them on a boundary.
  RunDifferentialGallery("nope\n{\"a\":1}\n{bad\n{\"a\":2}\n{\"a\":3}\n}{");
}

TEST(ChunkedIngestDifferentialTest, MalformedFirstLine) {
  RunDifferentialGallery("{oops\n1\n2\n3\n4\n5\n");
}

TEST(ChunkedIngestDifferentialTest, AllMalformed) {
  RunDifferentialGallery("a\nb\nc\nd\ne\nf\n");
}

TEST(ChunkedIngestDifferentialTest, RateCreepsAcrossChunks) {
  // The rate stays legal early and trips deep into the buffer, so the
  // replay has to abort inside a *later* chunk using cumulative counts.
  std::string text;
  for (int i = 0; i < 20; ++i) text += "{\"ok\":" + std::to_string(i) + "}\n";
  for (int i = 0; i < 12; ++i) {
    text += "broken-line-" + std::to_string(i) + "\n";
  }
  RunDifferentialGallery(text);
}

TEST(ChunkedIngestDifferentialTest, EmptyAndDegenerate) {
  RunDifferentialGallery("");
  RunDifferentialGallery("\n");
  RunDifferentialGallery("1");
  RunDifferentialGallery("nope");
}

TEST(ChunkedIngestDifferentialTest, ErrorCapRespected) {
  std::string text;
  for (int i = 0; i < 30; ++i) text += "bad" + std::to_string(i) + "\n";
  IngestOptions o = WithPolicy(MalformedLinePolicy::kSkip);
  o.max_recorded_errors = 3;
  for (size_t chunks = 1; chunks <= 8; ++chunks) {
    SCOPED_TRACE("chunks=" + std::to_string(chunks));
    ExpectChunkedMatchesSerial(text, chunks, o);
  }
}

TEST(ChunkedIngestDifferentialTest, RateBaselineFromEarlierStream) {
  // A dirty baseline makes the very first malformed line of this buffer
  // trip the rate policy — the replay must consult rate_baseline exactly
  // like the serial reader.
  IngestStats baseline;
  baseline.records = 10;
  baseline.malformed_lines = 4;
  IngestOptions o = WithPolicy(MalformedLinePolicy::kFailAboveRate);
  o.rate_baseline = &baseline;
  for (size_t chunks = 1; chunks <= 6; ++chunks) {
    SCOPED_TRACE("chunks=" + std::to_string(chunks));
    ExpectChunkedMatchesSerial("{\"a\":1}\nbad\n{\"a\":2}\n", chunks, o);
  }
}

TEST(ChunkedIngestTest, KFailMessageMatchesSerialLineNumber) {
  const std::string text = "1\n2\n3\n4\nboom\n5\n";
  IngestOptions o;  // kFail
  std::vector<TypedChunkOutcome> outcomes = InferChunks(text, 3, o);
  IngestStats stats;
  ChunkReplay replay = ReplayChunkPolicy(outcomes, o, &stats);
  ASSERT_FALSE(replay.status.ok());
  EXPECT_NE(replay.status.message().find("line 5"), std::string::npos)
      << replay.status;
  EXPECT_EQ(stats.records, 4u);
  EXPECT_EQ(TakeIncludedTypes(std::move(outcomes), replay).size(), 4u);
}

}  // namespace
}  // namespace jsonsi::json
