// Differential fuzz target: the DOM parser and the DOM-free direct
// inference kernel must be observationally equivalent on ARBITRARY bytes —
// same accept/reject decision, byte-identical Status message, and (on
// accept) a direct type TypeEquals-identical to InferType over the parsed
// value. This is the fuzz-hardened version of the fixed adversarial gallery
// in tests/direct_infer_test.cc; the gallery seeds the corpus.
//
// The first input byte selects the ParseOptions variant (default, shallow
// max_depth, tiny max_document_bytes, trailing content allowed) and, in its
// high half (selector >= 4), turns annotation collection on: the same four
// option variants re-run with an Annotation accumulator, cross-checking that
// annotating changes no accept/reject decision or type, that the
// tokenizer-driven collection agrees exactly with the DOM-walk ObserveValue
// (annotate/annotation.h), that a rejected document leaves the accumulator
// at the identity, and that observing into an accumulator already past
// every bounded-component cap equals merging the document's DOM annotation
// into it (observe == merge, the law that lets collectors fold records
// straight into a shared accumulator). The second byte selects the SIMD
// kernel the direct path runs under (modulo the kernels this host actually
// has, so every corpus entry is meaningful on every machine). The direct pass
// additionally runs under the scalar kernel and both results are
// cross-checked — a vector kernel that mis-scans any byte sequence shows
// up as a scalar/vector divergence even when the DOM comparison alone
// would pass. The rest of the input is the document.
//
// The second byte's high half is the io-pipeline axis (PR 10): when bit 7
// is set, the document is additionally treated as JSONL and fed through a
// PipelineReader over a Contents()-hidden MemorySource with a tiny buffer
// (bits 4-6 pick the size, down to a single byte, so batch seams land
// inside tokens, strings and error positions). The pumped stream must
// reproduce the one-shot AddJsonLines exactly — same accept/abort status
// message, same IngestStats to the byte offset, same snapshot type —
// under both the skip and the fail-above-rate policies.
//
// Built with -fsanitize=fuzzer under Clang (see fuzz/CMakeLists.txt); under
// GCC the same target links fuzz/standalone_main.cc and replays the corpus
// as a ctest smoke.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "annotate/annotation.h"
#include "core/io_pump.h"
#include "core/streaming_inferencer.h"
#include "inference/direct_infer.h"
#include "inference/infer.h"
#include "io/input_source.h"
#include "io/pipeline_reader.h"
#include "json/parser.h"
#include "json/simd/kernel.h"
#include "json/value.h"
#include "types/type.h"

namespace {

void Fail(const char* what, std::string_view doc) {
  std::fprintf(stderr, "differential_fuzz: %s on %zu-byte input: ", what,
               doc.size());
  std::fwrite(doc.data(), 1, doc.size(), stderr);
  std::fputc('\n', stderr);
  std::abort();
}

bool SameStats(const jsonsi::json::IngestStats& a,
               const jsonsi::json::IngestStats& b) {
  if (a.lines_read != b.lines_read || a.blank_lines != b.blank_lines ||
      a.records != b.records || a.malformed_lines != b.malformed_lines ||
      a.bytes_read != b.bytes_read || a.bytes_consumed != b.bytes_consumed ||
      a.errors.size() != b.errors.size()) {
    return false;
  }
  for (size_t i = 0; i < a.errors.size(); ++i) {
    if (a.errors[i].line_number != b.errors[i].line_number ||
        a.errors[i].byte_offset != b.errors[i].byte_offset ||
        a.errors[i].message != b.errors[i].message) {
      return false;
    }
  }
  return true;
}

// The io-pipeline parity axis: batching `doc` through a tiny-buffer
// PipelineReader must be observationally identical to one AddJsonLines
// call of the whole text.
void CheckStreamParity(std::string_view doc, size_t buffer_bytes,
                       jsonsi::json::MalformedLinePolicy policy) {
  jsonsi::core::StreamingOptions opts;
  opts.on_malformed = policy;
  opts.max_error_rate = 0.25;
  opts.min_lines_for_rate = 4;

  jsonsi::core::StreamingInferencer one_shot(opts);
  jsonsi::Status want = one_shot.AddJsonLines(doc);

  jsonsi::core::StreamingInferencer pumped(opts);
  jsonsi::io::MemorySource source(doc, /*expose_contents=*/false);
  jsonsi::io::IoOptions io;
  io.buffer_bytes = buffer_bytes;
  io.overlap = false;  // deterministic single-thread replay
  jsonsi::io::PipelineReader reader(&source, io);
  jsonsi::Status got = jsonsi::core::PumpJsonLines(reader, pumped, {});

  if (want.ok() != got.ok()) Fail("pipeline accept/abort split", doc);
  if (!want.ok() && want.message() != got.message()) {
    Fail("pipeline abort message mismatch", doc);
  }
  if (!SameStats(one_shot.ingest_stats(), pumped.ingest_stats())) {
    Fail("pipeline IngestStats mismatch", doc);
  }
  if (want.ok() &&
      !one_shot.Snapshot().type->Equals(*pumped.Snapshot().type)) {
    Fail("pipeline type mismatch", doc);
  }
}

// An accumulator past every cap: more than kShapeCap shapes at the root and
// in a nested record, a shape with more than kShapeFieldCap scalar fields,
// and more than kDistinctSampleCap distinct values at the root, in fields
// and in array items — over short keys a fuzzed document is likely to hit.
const jsonsi::annotate::Annotation& SaturatedSeed() {
  static const jsonsi::annotate::Annotation* seed = [] {
    auto* ann = new jsonsi::annotate::Annotation();
    auto observe = [ann](const std::string& text) {
      auto v = jsonsi::json::Parse(text);
      if (!v.ok()) Fail("unparsable saturation seed", text);
      jsonsi::annotate::ObserveValue(*v.value(), ann);
    };
    const char* kKeys[] = {"", "a", "b", "x", "id", "type"};
    for (int i = 0; i < 80; ++i) {
      const std::string n = std::to_string(i);
      const std::string key = std::string("\"") + kKeys[i % 6] + "\":";
      // 41 scalar fields in one shape.
      std::string wide = "{";
      for (int f = 0; f < 40; ++f) {
        wide += "\"f" + std::to_string(f) + "\":" + n + ",";
      }
      observe(wide + key + "\"v" + n + "\"}");
      // A new shape per i, at the root and under "n".
      const std::string k = "\"k" + n + "\":";
      const std::string items = "[" + n + ",\"s" + n + "\",{" + k + "null}]";
      observe("{" + k + n + "," + key + items + ",\"n\":{" + k + "true}}");
      observe(n);
      observe("[\"" + n + "\"," + n + ",[" + n + "]]");
    }
    return ann;
  }();
  return *seed;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  namespace simd = jsonsi::json::simd;
  static const std::vector<simd::Kernel> kKernels = simd::AvailableKernels();

  jsonsi::json::ParseOptions options;
  bool annotate = false;
  std::string_view doc(reinterpret_cast<const char*>(data), size);
  if (!doc.empty()) {
    const unsigned selector = static_cast<unsigned char>(doc.front()) % 8;
    annotate = selector >= 4;
    switch (selector % 4) {
      case 0:
        break;  // defaults
      case 1:
        options.max_depth = 4;
        break;
      case 2:
        options.max_document_bytes = 16;
        break;
      case 3:
        options.allow_trailing_content = true;
        break;
    }
    doc.remove_prefix(1);
  }
  simd::Kernel kernel = simd::Kernel::kScalar;
  bool stream_parity = false;
  size_t stream_buffer = 1;
  if (!doc.empty()) {
    const unsigned byte = static_cast<unsigned char>(doc.front());
    kernel = kKernels[byte % kKernels.size()];
    stream_parity = (byte & 0x80) != 0;
    static constexpr size_t kBufferSizes[8] = {1, 2, 3, 5, 8, 13, 64, 4096};
    stream_buffer = kBufferSizes[(byte >> 4) & 7];
    doc.remove_prefix(1);
  }

  if (stream_parity) {
    CheckStreamParity(doc, stream_buffer,
                      jsonsi::json::MalformedLinePolicy::kSkip);
    CheckStreamParity(doc, stream_buffer,
                      jsonsi::json::MalformedLinePolicy::kFailAboveRate);
  }

  jsonsi::Result<jsonsi::json::ValueRef> parsed =
      jsonsi::json::Parse(doc, options);

  jsonsi::annotate::Annotation ann_scalar;
  jsonsi::annotate::Annotation ann_vector;
  simd::SetKernel(simd::Kernel::kScalar);
  jsonsi::Result<jsonsi::types::TypeRef> scalar =
      annotate ? jsonsi::inference::DirectInferType(doc, options, &ann_scalar)
               : jsonsi::inference::DirectInferType(doc, options);
  simd::SetKernel(kernel);
  jsonsi::Result<jsonsi::types::TypeRef> direct =
      annotate ? jsonsi::inference::DirectInferType(doc, options, &ann_vector)
               : jsonsi::inference::DirectInferType(doc, options);

  // Vector kernel vs scalar: the SIMD parity axis.
  if (scalar.ok() != direct.ok()) Fail("kernel accept/reject split", doc);
  if (!scalar.ok() &&
      scalar.status().message() != direct.status().message()) {
    Fail("kernel status message mismatch", doc);
  }
  if (scalar.ok() && !scalar.value()->Equals(*direct.value())) {
    Fail("kernel type mismatch", doc);
  }

  // Direct vs DOM: the PR-7 parity axis.
  if (parsed.ok() != direct.ok()) Fail("accept/reject mismatch", doc);
  if (!parsed.ok()) {
    if (parsed.status().message() != direct.status().message()) {
      Fail("status message mismatch", doc);
    }
    // A rejected document is never observed, however late it fails.
    static const jsonsi::annotate::Annotation kIdentity;
    if (!ann_scalar.Equals(kIdentity) || !ann_vector.Equals(kIdentity)) {
      Fail("rejected document modified the accumulator", doc);
    }
    return 0;
  }
  jsonsi::types::TypeRef via_dom =
      jsonsi::inference::InferType(*parsed.value());
  if (!via_dom->Equals(*direct.value())) Fail("type mismatch", doc);

  if (annotate) {
    // Annotation axes: collection must not perturb the type, the two
    // kernels must accumulate identical statistics, and the tokenizer
    // collection must equal the DOM walk.
    jsonsi::Result<jsonsi::types::TypeRef> plain =
        jsonsi::inference::DirectInferType(doc, options);
    if (!plain.ok() || !plain.value()->Equals(*direct.value())) {
      Fail("annotated/unannotated type mismatch", doc);
    }
    if (!ann_scalar.Equals(ann_vector)) {
      Fail("kernel annotation mismatch", doc);
    }
    jsonsi::annotate::Annotation ann_dom;
    jsonsi::annotate::ObserveValue(*parsed.value(), &ann_dom);
    if (!ann_dom.Equals(ann_vector)) Fail("DOM annotation mismatch", doc);

    // Observe == merge, past the caps.
    jsonsi::annotate::Annotation observed = SaturatedSeed().Clone();
    if (!jsonsi::inference::DirectInferType(doc, options, &observed).ok()) {
      Fail("saturated accumulator changed the verdict", doc);
    }
    jsonsi::annotate::Annotation merged = SaturatedSeed().Clone();
    merged.MergeFrom(ann_dom);
    if (!observed.Equals(merged)) Fail("observe != merge past the caps", doc);
  }
  return 0;
}
