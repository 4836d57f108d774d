// Differential tests for the DOM-free direct inference kernel
// (inference/direct_infer.h): DirectInferType must be observationally
// equivalent to the composed pipeline InferType(*Parse(text)) — same types
// (TypeEquals), and on malformed input the *same Status*, message and
// position byte-for-byte. The suite drives both paths over the datagen
// corpora, an adversarial gallery, every truncation of a nested document,
// all malformed-line policies through SchemaInferencer, the chunk-parallel
// path, the streaming inferencer, and the infer.direct.* telemetry
// contract (default path never materializes a json::Value).

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "annotate/annotation.h"
#include "core/schema_inferencer.h"
#include "core/streaming_inferencer.h"
#include "datagen/generator.h"
#include "inference/direct_infer.h"
#include "inference/infer.h"
#include "json/parser.h"
#include "json/serializer.h"
#include "telemetry/telemetry.h"
#include "types/interner.h"
#include "types/printer.h"
#include "types/type.h"

namespace jsonsi {
namespace {

using core::InferenceOptions;
using core::SchemaInferencer;
using core::StreamingInferencer;
using core::StreamingOptions;
using inference::DirectInferType;
using json::MalformedLinePolicy;
using json::ParseOptions;

// Runs both pipelines on one document and asserts observational
// equivalence: equal types when both succeed, equal Status (code and
// message, hence position) when both fail, and never a split verdict.
void ExpectParity(std::string_view text, const ParseOptions& options = {}) {
  auto direct = DirectInferType(text, options);
  auto parsed = json::Parse(text, options);
  if (parsed.ok()) {
    ASSERT_TRUE(direct.ok())
        << "direct failed where parse succeeded on: " << text << "\n  "
        << direct.status().message();
    auto via_dom = inference::InferType(*parsed.value());
    EXPECT_TRUE(types::TypeEquals(direct.value(), via_dom))
        << "type mismatch on: " << text << "\n  direct: "
        << types::ToString(*direct.value())
        << "\n  dom:    " << types::ToString(*via_dom);
  } else {
    ASSERT_FALSE(direct.ok())
        << "direct succeeded where parse failed on: " << text
        << "\n  parse error: " << parsed.status().message();
    EXPECT_EQ(direct.status(), parsed.status()) << "on: " << text;
  }
}

TEST(DirectInferTest, ScalarsAndEmptyContainers) {
  for (std::string_view text :
       {"null", "true", "false", "0", "-1", "3.25", "1e6", "-2.5E-3",
        "\"\"", "\"abc\"", "{}", "[]", "  42  ", "\t\"x\"\n"}) {
    ExpectParity(text);
  }
}

TEST(DirectInferTest, NestedStructures) {
  for (std::string_view text :
       {R"({"a":1})", R"({"a":1,"b":"x"})", R"({"b":1,"a":2})",
        R"([1,2,3])", R"([1,"a",null,true])", R"([[1],[2,3],[]])",
        R"({"a":{"b":{"c":[]}}})", R"([{"a":1},{"a":2,"b":3}])",
        R"({"k":[{"x":null}],"m":{}})",
        R"({"esc":"a\nb\t\"c\"\\d\/e\u0041\uD83D\uDE00"})"}) {
    ExpectParity(text);
  }
}

TEST(DirectInferTest, AdversarialGalleryMatchesParserErrors) {
  for (std::string_view text : {
           // Literals and numbers.
           "nul", "truex", "fals", "01", "1.", "1e", "1e+", "-", "+1",
           ".5", "1e999", "--1", "1.2.3",
           // Strings and escapes.
           "\"abc", "\"a\\", "\"a\\q\"", "\"a\nb\"", "\"\\u12\"",
           "\"\\uZZZZ\"", "\"\\uD800x\"", "\"\\uD800\\u0041\"",
           "\"\\uDC00\"",
           // Records.
           "{", "{}x", "{\"a\"}", "{\"a\":}", "{\"a\" 1}", "{\"a\":1,}",
           "{\"a\":1 \"b\":2}", "{1:2}", "{\"a\":1,\"a\":2}",
           "{\"a\":1,\"b\":2,\"a\":3}", "{\"\\u0041\":1,\"A\":2}",
           // Arrays.
           "[", "[1,]", "[1 2]", "[,1]", "[1,2", "]", "}",
           // Top level.
           "", "   ", "1 2", "{} {}", ":", ",",
       }) {
    ExpectParity(text);
  }
}

TEST(DirectInferTest, DepthLimitParity) {
  ParseOptions shallow;
  shallow.max_depth = 4;
  for (std::string_view text :
       {"[[[[1]]]]", "[[[[[1]]]]]", R"({"a":{"b":{"c":{"d":1}}}})",
        R"({"a":{"b":{"c":{"d":{"e":1}}}}})", R"([{"a":[{"b":1}]}])"}) {
    ExpectParity(text, shallow);
    ExpectParity(text);  // default depth for good measure
  }
}

TEST(DirectInferTest, DocumentBudgetParity) {
  ParseOptions tight;
  tight.max_document_bytes = 16;
  for (std::string_view text :
       {"{\"key\":\"a much longer document\"}", "[1,2,3,4,5,6,7,8,9,10]",
        "\"exactly seventeen\"", "{\"a\":1}", "null", ""}) {
    ExpectParity(text, tight);
    ExpectParity(text);  // unlimited budget for good measure
  }
  // A document of exactly the limit is admitted.
  ParseOptions exact;
  exact.max_document_bytes = 7;
  ExpectParity("{\"a\":1}", exact);
  auto ok = DirectInferType("{\"a\":1}", exact);
  EXPECT_TRUE(ok.ok()) << ok.status().message();
}

TEST(DirectInferTest, TrailingContentOptionParity) {
  ParseOptions lenient;
  lenient.allow_trailing_content = true;
  for (std::string_view text : {"1 2", "{} {\"a\":1}", "null trailing",
                                "[1]   ", "\"x\"y"}) {
    ExpectParity(text, lenient);
  }
}

TEST(DirectInferTest, EveryTruncationOfANestedDocument) {
  const std::string doc =
      R"({"id":17,"tags":["a","b\u00e9"],"meta":{"ok":true,"note":null},)"
      R"("score":-1.5e2})";
  for (size_t n = 0; n <= doc.size(); ++n) {
    ExpectParity(std::string_view(doc).substr(0, n));
  }
}

TEST(DirectInferTest, DatagenDifferentialWithAndWithoutInterning) {
  for (auto id : {datagen::DatasetId::kGitHub, datagen::DatasetId::kTwitter,
                  datagen::DatasetId::kWikidata,
                  datagen::DatasetId::kNYTimes}) {
    auto values = datagen::MakeGenerator(id, 7)->GenerateMany(200);
    for (bool intern : {true, false}) {
      types::ScopedInterning scope(intern);
      for (const auto& v : values) {
        const std::string text = json::ToJson(v);
        auto direct = DirectInferType(text);
        ASSERT_TRUE(direct.ok()) << direct.status().message();
        EXPECT_TRUE(
            types::TypeEquals(direct.value(), inference::InferType(*v)))
            << "intern=" << intern << " on: " << text;
      }
    }
  }
}

TEST(DirectInferTest, RejectedDocumentLeavesAccumulatorUntouched) {
  // Validate, then observe: a document that fails anywhere — even after
  // values, keys and nested records were read — must not modify `ann`.
  ParseOptions options;
  options.max_depth = 3;
  annotate::Annotation ann;
  for (std::string_view seed :
       {R"({"a":1,"n":{"p":"x"},"arr":[1,[2]]})", R"({"a":"s","b":null})",
        "[true,false,2.5]", "{}"}) {
    ASSERT_TRUE(DirectInferType(seed, options, &ann).ok()) << seed;
  }
  const annotate::Annotation before = ann.Clone();
  const std::string nested =
      R"({"a":7,"n":{"p":"y","q":[1,"z",null]},"arr":[3,[4]]})";
  // A duplicate key, trailing content, max_depth inside an array, and every
  // truncation of a well-formed document.
  std::vector<std::string> bad = {
      R"({"a":2,"n":{"p":"leak","q":1,"p":2}})",
      R"({"a":3,"n":{"p":"leak"}} {"a":4})",
      R"({"a":5,"b":"leak","arr":[1,"x",[2,[3]]]})",
  };
  for (size_t n = 0; n < nested.size(); ++n) {
    bad.push_back(nested.substr(0, n));
  }
  for (const std::string& text : bad) {
    auto t = DirectInferType(text, options, &ann);
    ASSERT_FALSE(t.ok()) << text;
    EXPECT_TRUE(ann.Equals(before)) << "accumulator modified by: " << text;
  }
  ASSERT_TRUE(DirectInferType(nested, options, &ann).ok());
  EXPECT_FALSE(ann.Equals(before));
}

// ---------------------------------------------------------------------------
// Pipeline-level equivalence: SchemaInferencer with direct_infer on vs off.

std::string DirtyJsonl() {
  std::string text = "\xEF\xBB\xBF";  // BOM on the first line
  auto values =
      datagen::MakeGenerator(datagen::DatasetId::kGitHub, 3)->GenerateMany(40);
  for (size_t i = 0; i < values.size(); ++i) {
    text += json::ToJson(values[i]);
    text += (i % 5 == 2) ? "\r\n" : "\n";
    if (i % 7 == 3) text += "\n";                  // blank line
    if (i % 9 == 4) text += "{\"broken\": nope}\n";  // malformed line
  }
  text += "not json at all\n";
  return text;
}

void ExpectIngestStatsEq(const json::IngestStats& a,
                         const json::IngestStats& b) {
  EXPECT_EQ(a.lines_read, b.lines_read);
  EXPECT_EQ(a.blank_lines, b.blank_lines);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.malformed_lines, b.malformed_lines);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  ASSERT_EQ(a.errors.size(), b.errors.size());
  for (size_t i = 0; i < a.errors.size(); ++i) {
    EXPECT_EQ(a.errors[i].line_number, b.errors[i].line_number);
    EXPECT_EQ(a.errors[i].byte_offset, b.errors[i].byte_offset);
    EXPECT_EQ(a.errors[i].message, b.errors[i].message);
  }
}

TEST(DirectInferPipelineTest, PolicyDifferentialAgainstDomPath) {
  const std::string text = DirtyJsonl();
  for (auto policy : {MalformedLinePolicy::kFail, MalformedLinePolicy::kSkip,
                      MalformedLinePolicy::kFailAboveRate}) {
    for (double rate : {0.01, 0.5}) {
      InferenceOptions direct_opts;
      direct_opts.num_threads = 1;
      direct_opts.ingest.on_malformed = policy;
      direct_opts.ingest.max_error_rate = rate;
      direct_opts.ingest.min_lines_for_rate = 4;
      InferenceOptions dom_opts = direct_opts;
      dom_opts.direct_infer = false;

      json::IngestStats direct_stats, dom_stats;
      auto direct = SchemaInferencer(direct_opts)
                        .InferFromJsonLines(text, &direct_stats);
      auto dom =
          SchemaInferencer(dom_opts).InferFromJsonLines(text, &dom_stats);

      ASSERT_EQ(direct.ok(), dom.ok())
          << "policy=" << static_cast<int>(policy) << " rate=" << rate;
      ExpectIngestStatsEq(direct_stats, dom_stats);
      if (direct.ok()) {
        EXPECT_TRUE(types::TypeEquals(direct.value().type, dom.value().type));
        EXPECT_EQ(direct.value().stats.record_count,
                  dom.value().stats.record_count);
        // Mode accounting: each pipeline attributes every record to its
        // own ingestion path.
        EXPECT_EQ(direct.value().stats.direct_records,
                  direct.value().stats.record_count);
        EXPECT_EQ(direct.value().stats.dom_records, 0u);
        EXPECT_EQ(dom.value().stats.dom_records,
                  dom.value().stats.record_count);
        EXPECT_EQ(dom.value().stats.direct_records, 0u);
      } else {
        EXPECT_EQ(direct.status(), dom.status());
      }
    }
  }
}

TEST(DirectInferPipelineTest, ParallelSchemaIdenticalToSerial) {
  std::string text;
  auto values = datagen::MakeGenerator(datagen::DatasetId::kTwitter, 11)
                    ->GenerateMany(120);
  for (const auto& v : values) {
    text += json::ToJson(v);
    text += '\n';
  }

  InferenceOptions serial;
  serial.num_threads = 1;
  auto base = SchemaInferencer(serial).InferFromJsonLines(text);
  ASSERT_TRUE(base.ok()) << base.status().message();

  for (size_t threads : {2u, 4u}) {
    InferenceOptions par = serial;
    par.num_threads = threads;
    par.parallel_ingest_min_bytes = 0;  // force chunking on this small input
    auto schema = SchemaInferencer(par).InferFromJsonLines(text);
    ASSERT_TRUE(schema.ok()) << schema.status().message();
    EXPECT_TRUE(types::TypeEquals(schema.value().type, base.value().type))
        << "threads=" << threads;
    EXPECT_EQ(schema.value().stats.record_count,
              base.value().stats.record_count);
    EXPECT_EQ(schema.value().stats.direct_records, values.size());
  }
}

// ---------------------------------------------------------------------------
// Telemetry contract: the default path never materializes a json::Value.

class DirectInferTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::MetricsRegistry::Global().ResetAll();
    telemetry::SetEnabled(true);
  }
  void TearDown() override {
    telemetry::SetEnabled(false);
    telemetry::MetricsRegistry::Global().ResetAll();
  }
};

TEST_F(DirectInferTelemetryTest, DefaultPathBypassesDomForEveryRecord) {
  std::string text;
  constexpr size_t kRecords = 64;
  auto values = datagen::MakeGenerator(datagen::DatasetId::kNYTimes, 5)
                    ->GenerateMany(kRecords);
  for (const auto& v : values) {
    text += json::ToJson(v);
    text += '\n';
  }

  InferenceOptions options;
  options.num_threads = 1;
  auto schema = SchemaInferencer(options).InferFromJsonLines(text);
  ASSERT_TRUE(schema.ok()) << schema.status().message();

  auto snap = telemetry::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.CounterValue("infer.direct.records"), kRecords);
  EXPECT_EQ(snap.CounterValue("infer.direct.dom_bypassed"), kRecords);
  EXPECT_EQ(snap.CounterValue("infer.direct.errors"), 0u);
  EXPECT_EQ(snap.CounterValue("parse.calls"), 0u)
      << "direct path must not invoke the DOM parser";

  // The DOM fallback, by contrast, parses every record.
  telemetry::MetricsRegistry::Global().ResetAll();
  options.direct_infer = false;
  schema = SchemaInferencer(options).InferFromJsonLines(text);
  ASSERT_TRUE(schema.ok()) << schema.status().message();
  snap = telemetry::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.CounterValue("parse.calls"), kRecords);
  EXPECT_EQ(snap.CounterValue("infer.direct.records"), 0u);
}

// ---------------------------------------------------------------------------
// Streaming inferencer parity.

TEST(DirectInferStreamingTest, StreamingDirectMatchesDomSnapshot) {
  const std::string text = DirtyJsonl();
  StreamingOptions direct_opts;
  direct_opts.on_malformed = MalformedLinePolicy::kSkip;
  StreamingOptions dom_opts = direct_opts;
  dom_opts.direct_infer = false;

  StreamingInferencer direct(direct_opts), dom(dom_opts);
  ASSERT_TRUE(direct.AddJsonLines(text).ok());
  ASSERT_TRUE(dom.AddJsonLines(text).ok());
  // Feed a second batch to exercise cumulative stats on the direct arm.
  ASSERT_TRUE(direct.AddJsonLines(text).ok());
  ASSERT_TRUE(dom.AddJsonLines(text).ok());

  EXPECT_EQ(direct.record_count(), dom.record_count());
  EXPECT_EQ(direct.malformed_count(), dom.malformed_count());
  ExpectIngestStatsEq(direct.ingest_stats(), dom.ingest_stats());
  EXPECT_TRUE(types::TypeEquals(direct.Snapshot().type, dom.Snapshot().type));
}

TEST(DirectInferStreamingTest, StreamingParallelMatchesSerial) {
  std::string text;
  auto values = datagen::MakeGenerator(datagen::DatasetId::kWikidata, 9)
                    ->GenerateMany(150);
  for (const auto& v : values) {
    text += json::ToJson(v);
    text += '\n';
  }

  StreamingInferencer serial, parallel;
  ASSERT_TRUE(serial.AddJsonLines(text).ok());
  ASSERT_TRUE(parallel.AddJsonLinesParallel(text, 4).ok());
  EXPECT_EQ(serial.record_count(), parallel.record_count());
  EXPECT_TRUE(
      types::TypeEquals(serial.Snapshot().type, parallel.Snapshot().type));
  ExpectIngestStatsEq(serial.ingest_stats(), parallel.ingest_stats());
}

TEST(DirectInferStreamingTest, ProfilerForcesDomPathAndStaysExact) {
  std::string text;
  auto values = datagen::MakeGenerator(datagen::DatasetId::kGitHub, 21)
                    ->GenerateMany(30);
  for (const auto& v : values) {
    text += json::ToJson(v);
    text += '\n';
  }

  StreamingOptions profiled;
  profiled.profile = true;  // direct_infer stays true but must be ignored
  StreamingInferencer with_profile(profiled), plain;
  ASSERT_TRUE(with_profile.AddJsonLines(text).ok());
  ASSERT_TRUE(plain.AddJsonLines(text).ok());
  ASSERT_NE(with_profile.profiler(), nullptr);
  EXPECT_EQ(with_profile.record_count(), plain.record_count());
  EXPECT_TRUE(types::TypeEquals(with_profile.Snapshot().type,
                                plain.Snapshot().type));
}

}  // namespace
}  // namespace jsonsi
