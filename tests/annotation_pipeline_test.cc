// End-to-end determinism tests for annotated inference.
//
// The contract (core/schema_inferencer.h): with InferenceOptions::annotate
// set, the serial path, the threaded value path, the chunk-parallel text
// path and the DOM (direct_infer = false) path all produce EXACTLY the same
// annotation tree and the same refined tagged unions — the annotation is a
// commutative-monoid fold, so Theorems 5.4/5.5 extend to it verbatim.
// Checked over all four synthetic dataset generators, through degraded-mode
// aborts (malformed lines must not pollute the accumulators, even lines
// that fail only after values were seen), and through Schema::Merge.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "annotate/annotation.h"
#include "annotate/refine.h"
#include "core/schema_inferencer.h"
#include "datagen/generator.h"
#include "io/input_source.h"
#include "json/jsonl.h"
#include "json/parser.h"
#include "json/serializer.h"
#include "json/simd/kernel.h"
#include "telemetry/telemetry.h"

namespace jsonsi {
namespace {

using annotate::Annotation;
using annotate::RefinementMap;
using annotate::RefineTaggedUnions;
using core::InferenceOptions;
using core::Schema;
using core::SchemaInferencer;

std::vector<json::ValueRef> GenerateValues(datagen::DatasetId id, size_t n) {
  auto gen = datagen::MakeGenerator(id, /*seed=*/7);
  std::vector<json::ValueRef> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) values.push_back(gen->Generate(i));
  return values;
}

const datagen::DatasetId kCorpora[] = {
    datagen::DatasetId::kGitHub, datagen::DatasetId::kTwitter,
    datagen::DatasetId::kWikidata, datagen::DatasetId::kNYTimes};

// Asserts two annotated schemas agree on type, annotation tree, and the
// refinements derived from it.
void ExpectSameAnnotatedSchema(const Schema& expected, const Schema& got,
                               const std::string& label) {
  EXPECT_TRUE(expected.type->Equals(*got.type)) << label;
  ASSERT_NE(expected.annotation, nullptr) << label;
  ASSERT_NE(got.annotation, nullptr) << label;
  EXPECT_TRUE(expected.annotation->Equals(*got.annotation)) << label;
  EXPECT_TRUE(RefineTaggedUnions(*expected.annotation) ==
              RefineTaggedUnions(*got.annotation))
      << label;
}

TEST(AnnotationPipelineTest, ValuePathSerialVsThreaded) {
  for (datagen::DatasetId id : kCorpora) {
    auto values = GenerateValues(id, 150);
    InferenceOptions serial;
    serial.num_threads = 1;
    serial.annotate = true;
    Schema expected = SchemaInferencer(serial).InferFromValues(values);
    ASSERT_NE(expected.annotation, nullptr);
    EXPECT_EQ(expected.annotation->count, values.size());

    for (size_t threads : {2, 4, 8}) {
      for (size_t partitions : {0, 3, 7}) {
        InferenceOptions par = serial;
        par.num_threads = threads;
        par.num_partitions = partitions;
        Schema got = SchemaInferencer(par).InferFromValues(values);
        ExpectSameAnnotatedSchema(
            expected, got,
            "dataset=" + std::to_string(static_cast<int>(id)) +
                " threads=" + std::to_string(threads) +
                " partitions=" + std::to_string(partitions));
      }
    }
  }
}

TEST(AnnotationPipelineTest, TextPathSerialVsChunkedVsDom) {
  for (datagen::DatasetId id : kCorpora) {
    std::string text = json::ToJsonLines(GenerateValues(id, 120));
    InferenceOptions serial;
    serial.num_threads = 1;
    serial.annotate = true;
    auto expected = SchemaInferencer(serial).InferFromJsonLines(text);
    ASSERT_TRUE(expected.ok()) << expected.status().message();

    // Chunk-parallel direct ingestion (forced onto tiny inputs).
    for (size_t threads : {2, 4}) {
      InferenceOptions chunked = serial;
      chunked.num_threads = threads;
      chunked.parallel_ingest_min_bytes = 0;
      chunked.chunks_per_thread = 3;
      auto got = SchemaInferencer(chunked).InferFromJsonLines(text);
      ASSERT_TRUE(got.ok()) << got.status().message();
      ExpectSameAnnotatedSchema(expected.value(), got.value(),
                                "chunked threads=" + std::to_string(threads));
    }

    // DOM pipeline (parse then infer), serial and parallel.
    for (size_t threads : {1, 4}) {
      InferenceOptions dom = serial;
      dom.direct_infer = false;
      dom.num_threads = threads;
      dom.parallel_ingest_min_bytes = 0;
      auto got = SchemaInferencer(dom).InferFromJsonLines(text);
      ASSERT_TRUE(got.ok()) << got.status().message();
      ExpectSameAnnotatedSchema(expected.value(), got.value(),
                                "dom threads=" + std::to_string(threads));
    }
  }
}

TEST(AnnotationPipelineTest, MalformedLinesDoNotPolluteAccumulators) {
  // kSkip: the annotation must reflect only the well-formed lines, and must
  // match across serial / chunked / DOM runs.
  std::string text =
      "{\"type\":\"a\",\"x\":1}\n"
      "not json at all\n"
      "{\"type\":\"b\",\"y\":\"s\"}\n"
      "{\"type\":\"a\",\"x\":7\n"  // truncated record
      "{\"type\":\"b\",\"y\":\"t\"}\n";
  InferenceOptions serial;
  serial.num_threads = 1;
  serial.annotate = true;
  serial.ingest.on_malformed = json::MalformedLinePolicy::kSkip;
  auto expected = SchemaInferencer(serial).InferFromJsonLines(text);
  ASSERT_TRUE(expected.ok()) << expected.status().message();
  ASSERT_NE(expected.value().annotation, nullptr);
  EXPECT_EQ(expected.value().annotation->count, 3u);

  for (bool direct : {true, false}) {
    for (size_t threads : {1, 2, 4}) {
      InferenceOptions opts = serial;
      opts.direct_infer = direct;
      opts.num_threads = threads;
      opts.parallel_ingest_min_bytes = 0;
      opts.chunks_per_thread = 2;
      auto got = SchemaInferencer(opts).InferFromJsonLines(text);
      ASSERT_TRUE(got.ok()) << got.status().message();
      ExpectSameAnnotatedSchema(expected.value(), got.value(),
                                std::string("direct=") +
                                    (direct ? "1" : "0") +
                                    " threads=" + std::to_string(threads));
    }
  }
}

// Malformed lines that fail only after a collector could have observed
// values, interleaved with well-formed lines sharing their keys (so a
// leaked observation changes counts, ranges and samples).
struct LateFailureCorpus {
  std::string text;
  // The well-formed lines, in order.
  std::vector<std::string> good;
  size_t bad_lines = 0;
  // max_depth 3, which the depth case trips.
  json::ParseOptions parse;
};

LateFailureCorpus MakeLateFailureCorpus() {
  const std::string bad[] = {
      // Duplicate key, detected when the nested record closes.
      R"({"type":"bad","x":99,"n":{"p":1,"q":"leak","p":2}})",
      // Trailing content after a complete record.
      R"({"type":"a","x":98,"n":{"p":3,"q":"leak"}} {"type":"b"})",
      // max_depth hit inside an array after sibling fields and elements.
      R"({"type":"bad","x":97,"arr":[1,"leak",[2,[3,[4]]]]})",
      // Truncated nested value.
      R"({"type":"bad","x":96,"n":{"p":[5,"leak",)",
  };
  LateFailureCorpus corpus;
  corpus.parse.max_depth = 3;
  for (int i = 0; i < 24; ++i) {
    std::string line = R"({"type":")" + std::string(i % 2 ? "a" : "b");
    line += R"(","x":)" + std::to_string(i);
    line += R"(,"n":{"p":)" + std::to_string(i * 10);
    line += R"(,"q":"v)" + std::to_string(i % 3);
    line += R"("},"arr":[)" + std::to_string(i) + ",[";
    line += std::to_string(-i) + "]]}";
    corpus.good.push_back(line);
    corpus.text += line + "\n";
    if (i % 3 == 2) {
      corpus.text += bad[corpus.bad_lines++ % 4] + "\n";
    }
  }
  return corpus;
}

// The DOM-path annotation of just the well-formed lines.
Annotation DomAnnotationOf(const LateFailureCorpus& corpus) {
  Annotation expected;
  for (const std::string& line : corpus.good) {
    auto v = json::Parse(line, corpus.parse);
    EXPECT_TRUE(v.ok()) << v.status().message();
    annotate::ObserveValue(*v.value(), &expected);
  }
  return expected;
}

InferenceOptions LateFailureOptions(const LateFailureCorpus& corpus) {
  InferenceOptions opts;
  opts.num_threads = 1;
  opts.annotate = true;
  opts.parallel_ingest_min_bytes = 0;
  opts.chunks_per_thread = 3;
  opts.ingest.on_malformed = json::MalformedLinePolicy::kSkip;
  opts.ingest.parse = corpus.parse;
  return opts;
}

TEST(AnnotationPipelineTest, LateFailingLinesLeaveNoObservation) {
  const LateFailureCorpus corpus = MakeLateFailureCorpus();
  const Annotation expected = DomAnnotationOf(corpus);
  ASSERT_EQ(expected.count, corpus.good.size());
  ASSERT_EQ(corpus.bad_lines, 8u);

  auto check = [&](const Result<Schema>& got, const std::string& label) {
    ASSERT_TRUE(got.ok()) << label << ": " << got.status().message();
    ASSERT_NE(got.value().annotation, nullptr) << label;
    EXPECT_EQ(got.value().stats.record_count, corpus.good.size()) << label;
    EXPECT_TRUE(got.value().annotation->Equals(expected)) << label;
  };

  // Serial fused pass and chunk-parallel workers.
  for (size_t threads : {1, 2, 4}) {
    InferenceOptions opts = LateFailureOptions(corpus);
    opts.num_threads = threads;
    check(SchemaInferencer(opts).InferFromJsonLines(corpus.text),
          "text threads=" + std::to_string(threads));
  }

  // Non-mapped file input with --annotate (buffered by InputSource::Read).
  const std::string path =
      ::testing::TempDir() + "jsonsi_annotation_late_failure.jsonl";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << corpus.text;
  }
  for (size_t threads : {1, 4}) {
    InferenceOptions opts = LateFailureOptions(corpus);
    opts.num_threads = threads;
    opts.io.mode = io::IoMode::kStream;
    opts.io.buffer_bytes = 97;
    check(SchemaInferencer(opts).InferFromFile(path),
          "stream threads=" + std::to_string(threads));
  }
  std::remove(path.c_str());
}

// Two passes per accepted line (type, then observe) must still count each
// line once, and each folded record once.
TEST(AnnotationPipelineTest, TelemetryCountsEachLineOnce) {
  const LateFailureCorpus corpus = MakeLateFailureCorpus();
  // Every line is non-blank and newline-terminated.
  const uint64_t line_bytes =
      corpus.text.size() - (corpus.good.size() + corpus.bad_lines);
  const std::string kernel_counter =
      std::string("infer.simd.bytes.") +
      json::simd::KernelName(json::simd::ActiveKernel());
  for (size_t threads : {1, 4}) {
    telemetry::MetricsRegistry::Global().ResetAll();
    telemetry::SetEnabled(true);
    InferenceOptions opts = LateFailureOptions(corpus);
    opts.num_threads = threads;
    auto got = SchemaInferencer(opts).InferFromJsonLines(corpus.text);
    auto snap = telemetry::MetricsRegistry::Global().Snapshot();
    telemetry::SetEnabled(false);
    telemetry::MetricsRegistry::Global().ResetAll();
    ASSERT_TRUE(got.ok()) << got.status().message();
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(snap.CounterValue("annotate.records"), corpus.good.size())
        << label;
    EXPECT_EQ(snap.CounterValue("infer.direct.records"), corpus.good.size())
        << label;
    EXPECT_EQ(snap.CounterValue("infer.direct.errors"), corpus.bad_lines)
        << label;
    EXPECT_EQ(snap.CounterValue("infer.direct.bytes"), line_bytes) << label;
    EXPECT_EQ(snap.CounterValue(kernel_counter), line_bytes) << label;
  }
}

TEST(AnnotationPipelineTest, FailAboveRateAbortKeepsIncludedPrefixOnly) {
  // Enough malformed lines to trip kFailAboveRate. The run fails, so no
  // schema/annotation escapes — the point is parity of the failure across
  // serial and chunked runs (no partial annotation can leak out).
  std::string text;
  for (int i = 0; i < 20; ++i) {
    text += (i % 2 == 0) ? "{\"x\":" + std::to_string(i) + "}\n"
                         : "broken\n";
  }
  for (size_t threads : {1, 4}) {
    InferenceOptions opts;
    opts.num_threads = threads;
    opts.annotate = true;
    opts.parallel_ingest_min_bytes = 0;
    opts.ingest.on_malformed = json::MalformedLinePolicy::kFailAboveRate;
    opts.ingest.max_error_rate = 0.1;
    auto got = SchemaInferencer(opts).InferFromJsonLines(text);
    EXPECT_FALSE(got.ok()) << "threads=" << threads;
  }
}

TEST(AnnotationPipelineTest, RefinementDetectedEndToEnd) {
  std::string text =
      "{\"type\":\"a\",\"x\":1}\n"
      "{\"type\":\"a\",\"x\":2}\n"
      "{\"type\":\"b\",\"y\":\"s\"}\n";
  for (size_t threads : {1, 4}) {
    InferenceOptions opts;
    opts.num_threads = threads;
    opts.annotate = true;
    opts.parallel_ingest_min_bytes = 0;
    auto schema = SchemaInferencer(opts).InferFromJsonLines(text);
    ASSERT_TRUE(schema.ok());
    ASSERT_NE(schema.value().annotation, nullptr);
    RefinementMap m = RefineTaggedUnions(*schema.value().annotation);
    ASSERT_EQ(m.count(""), 1u) << "threads=" << threads;
    EXPECT_EQ(m.at("").discriminator, "type");
    EXPECT_EQ(m.at("").variants.size(), 2u);
  }
}

TEST(AnnotationPipelineTest, UnannotatedRunsCarryNoAnnotation) {
  InferenceOptions opts;  // annotate defaults to false
  auto schema = SchemaInferencer(opts).InferFromJsonLines("{\"x\":1}\n");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema.value().annotation, nullptr);
}

TEST(AnnotationPipelineTest, MergeFoldsAnnotations) {
  auto values = GenerateValues(datagen::DatasetId::kGitHub, 80);
  std::vector<json::ValueRef> first(values.begin(), values.begin() + 50);
  std::vector<json::ValueRef> second(values.begin() + 50, values.end());
  InferenceOptions opts;
  opts.num_threads = 1;
  opts.annotate = true;
  SchemaInferencer inferencer(opts);
  Schema whole = inferencer.InferFromValues(values);
  Schema merged = SchemaInferencer::Merge(inferencer.InferFromValues(first),
                                          inferencer.InferFromValues(second));
  ExpectSameAnnotatedSchema(whole, merged, "merge");

  // Merging with an un-annotated schema keeps the annotated side's tree.
  InferenceOptions plain_opts;
  plain_opts.num_threads = 1;
  Schema plain = SchemaInferencer(plain_opts).InferFromValues(second);
  Schema mixed = SchemaInferencer::Merge(inferencer.InferFromValues(first),
                                         plain);
  ASSERT_NE(mixed.annotation, nullptr);
  EXPECT_EQ(mixed.annotation->count, first.size());
}

TEST(AnnotationPipelineTest, AnnotationDoesNotChangeTheSchema) {
  for (datagen::DatasetId id : kCorpora) {
    std::string text = json::ToJsonLines(GenerateValues(id, 60));
    InferenceOptions plain;
    plain.num_threads = 1;
    auto without = SchemaInferencer(plain).InferFromJsonLines(text);
    InferenceOptions annotated = plain;
    annotated.annotate = true;
    auto with = SchemaInferencer(annotated).InferFromJsonLines(text);
    ASSERT_TRUE(without.ok());
    ASSERT_TRUE(with.ok());
    EXPECT_TRUE(without.value().type->Equals(*with.value().type));
  }
}

}  // namespace
}  // namespace jsonsi
