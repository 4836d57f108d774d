// jsi — command-line front end for the jsonsi schema-inference library.
//
// Subcommands:
//   jsi infer <file.jsonl | ->  [--pretty] [--stats] [--annotate]
//             [--threads N]
//             [--partitions N] [--skip-malformed] [--max-error-rate R]
//             [--max-depth N] [--max-line-bytes N]
//             [--checkpoint F [--checkpoint-every N] [--resume]]
//             [--memory-watermark-mb N]
//             [--io auto|mmap|read|stream] [--read-ahead-mb N]
//       Infers and prints the fused schema of a JSON-Lines input
//       ('-' streams stdin in bounded batches, no full buffering).
//       --io selects the input source (src/io/): auto (default) memory-maps
//       regular files zero-copy and streams pipes; mmap forces the map;
//       read and stream pump bounded --read-ahead-mb batches through the
//       streaming inferencer with overlapped read-ahead — constant memory,
//       so files larger than RAM infer fine. Every mode produces
//       byte-identical schemas, errors and ingestion stats. --threads N runs the whole pipeline — chunked
//       ingestion, map, tree-reduce — on N workers (default: hardware
//       concurrency; 1 = the exact serial path, structurally identical
//       output). --skip-malformed ingests dirty inputs in
//       degraded mode (bad lines are counted, reported on stderr, and
//       skipped); --max-error-rate R skips bad lines only while they stay
//       within a fraction R of the input, failing otherwise. Ingestion is
//       DOM-free (parse and Map fused into one pass over the text).
//       Unknown flags and a second input are usage errors.
//       Resource budgets (docs/robustness.md): --max-depth caps nesting
//       (default 512) and --max-line-bytes caps per-line size; a document
//       over budget is a malformed line under the active policy, with the
//       same error json::Parse reports. --memory-watermark-mb
//       soft-caps the resident auxiliary state (checkpointed runs only).
//       Durability: --checkpoint F streams the input and atomically saves
//       the full inference state to F every --checkpoint-every lines
//       (default 100000); --resume restores F and continues from its byte
//       offset — the final schema is identical to an uninterrupted run.
//       --annotate collects the value-statistics lattice beside the schema
//       (docs/annotations.md) and prints any tagged-union refinements it
//       supports; with --stats the per-position digest goes to stderr.
//       Annotations are exactly identical across serial, --threads N and
//       chunk-parallel runs. Not compatible with --checkpoint.
//   jsi gen <github|twitter|wikidata|nytimes> <count> [--seed S]
//       Emits a synthetic dataset as JSON-Lines on stdout.
//   jsi paths <file.jsonl | ->
//       Prints every label path traversable in the input, with counts.
//   jsi check <file.jsonl | -> --schema '<type expression>'
//       Validates every record against a schema; prints the first few
//       violations and exits non-zero if any record fails.
//   jsi export <file.jsonl | -> [--annotate]
//       Infers the schema and emits it as a JSON Schema (draft 2020-12)
//       document. --annotate additionally emits data-supported validation
//       facets (minimum/maximum, minLength/maxLength, enum) and encodes
//       refined tagged unions as a "oneOf" of discriminator constraints.
//   jsi annotate <file.jsonl | -> [--no-stats]
//       Infers the statistics-annotated schema (per-field counts,
//       provenance, value ranges).
//   jsi diff <old.types> <new.types>
//       Diffs two schema files (one type expression each) and prints the
//       change report; exits 2 when the schemas differ.
//   jsi diff --data <old.jsonl> <new.jsonl>
//       Infers both datasets with annotations and diffs structure AND
//       refinement drift (discriminators and variants appearing,
//       disappearing or moving); exits 2 when anything changed.
//   jsi analyze <file.jsonl | ->
//       Flags record positions that encode data in keys (the Wikidata
//       design smell of Section 6.1 of the paper).
//   jsi expand <file.jsonl | -> --pattern '<a.*.c / **.id>'
//       Expands a wildcard path pattern against the inferred schema.
//   jsi repo add <repo.txt> <source> <file.jsonl | ->
//       Infers the batch's schema and registers it in a persistent schema
//       repository (created on first use); prints drift when it occurs.
//   jsi repo show <repo.txt> [source]
//       Prints registered sources, or one source's version history.
//   jsi codegen <file.jsonl | -> [--root Name] [--namespace ns]
//       Emits C++17 struct bindings for the inferred schema.
//   jsi serve [--port N] [--bind ADDR] [--threads N] [--repo FILE]
//             [--max-body-mb N]
//       Runs the long-running multi-tenant inference daemon (src/server/):
//       per-tenant sessions over local HTTP/1.1, JSONL ingest batches,
//       JSON Schema export, live Prometheus /metrics, graceful
//       SIGINT/SIGTERM drain that checkpoints durable sessions. --port 0
//       (the default) binds an ephemeral port; the bound address is
//       printed on stdout. See docs/server.md for the protocol.
//
// Signals: a checkpointed `jsi infer` and `jsi serve` install SIGINT/
// SIGTERM handlers (server/shutdown.h). `jsi infer --checkpoint F` saves a
// final checkpoint between batches and exits 3 (resume with --resume);
// `jsi serve` drains in-flight requests and checkpoints durable sessions.
//
// Global flags (every subcommand):
//   --metrics-out <file>   Enables telemetry and writes the end-of-run
//                          metrics snapshot to <file> — Prometheus text
//                          when the name ends in .prom, JSON otherwise.
//   --trace-out <file>     Enables telemetry and writes recorded spans as
//                          Chrome trace_event JSON (load in about:tracing
//                          or https://ui.perfetto.dev).
//   --no-intern            Disables hash-consed type interning and fusion
//                          memoization (docs/performance.md) for this run —
//                          the escape hatch for A/B timing and debugging;
//                          results are structurally identical either way.
//   --simd <kernel>        Pins the structural-index scan kernel: auto
//                          (default: best available), scalar, sse4, avx2,
//                          or neon. Unavailable kernels fall back to scalar
//                          with a warning; unknown names are a usage error.
//                          Equivalent to JSI_FORCE_KERNEL=<kernel>; the
//                          flag wins when both are given.
//   Value flags accept `--flag value` and `--flag=value` spellings. On
//   every subcommand an unknown flag or a surplus positional argument is a
//   usage error (exit 1), never silently ignored.
//
// Exit codes: 0 success, 1 usage error, 2 runtime/validation failure,
// 3 interrupted by SIGINT/SIGTERM with state saved (checkpointed infer).

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "annotate/annotation.h"
#include "annotate/counted_schema.h"
#include "annotate/refine.h"
#include "core/checkpoint.h"
#include "core/schema_inferencer.h"
#include "core/streaming_inferencer.h"
#include "diff/schema_diff.h"
#include "export/cpp_codegen.h"
#include "export/json_schema.h"
#include "query/path_expansion.h"
#include "repository/schema_repository.h"
#include "stats/key_analysis.h"
#include "datagen/generator.h"
#include "json/jsonl.h"
#include "json/serializer.h"
#include "json/simd/kernel.h"
#include "server/server.h"
#include "server/shutdown.h"
#include "stats/paths.h"
#include "support/string_util.h"
#include "telemetry/telemetry.h"
#include "fusion/fuse_cache.h"
#include "core/io_pump.h"
#include "io/input_source.h"
#include "io/pipeline_reader.h"
#include "types/explain.h"
#include "types/interner.h"
#include "types/membership.h"
#include "types/printer.h"
#include "types/type_parser.h"

namespace {

using jsonsi::Result;
using jsonsi::core::Schema;
using jsonsi::core::SchemaInferencer;

int Usage() {
  std::cerr <<
      "usage:\n"
      "  jsi infer <file.jsonl | -> [--pretty] [--stats] [--annotate]\n"
      "            [--threads N]\n"
      "            [--partitions N] [--skip-malformed] [--max-error-rate R]\n"
      "            [--max-depth N] [--max-line-bytes N]\n"
      "            [--checkpoint F [--checkpoint-every N] [--resume]]\n"
      "            [--memory-watermark-mb N]\n"
      "            [--io auto|mmap|read|stream] [--read-ahead-mb N]\n"
      "  jsi gen <github|twitter|wikidata|nytimes> <count> [--seed S]\n"
      "  jsi paths <file.jsonl | ->\n"
      "  jsi check <file.jsonl | -> --schema '<type expression>'\n"
      "  jsi export <file.jsonl | -> [--annotate]\n"
      "  jsi annotate <file.jsonl | -> [--no-stats]\n"
      "  jsi diff <old.types> <new.types>\n"
      "  jsi diff --data <old.jsonl> <new.jsonl>\n"
      "  jsi analyze <file.jsonl | ->\n"
      "  jsi expand <file.jsonl | -> --pattern '<pattern>'\n"
      "  jsi repo add <repo.txt> <source> <file.jsonl | ->\n"
      "  jsi repo show <repo.txt> [source]\n"
      "  jsi codegen <file.jsonl | -> [--root Name] [--namespace ns]\n"
      "  jsi serve [--port N] [--bind ADDR] [--threads N] [--repo FILE]\n"
      "            [--max-body-mb N]\n"
      "global flags: --metrics-out <file>  --trace-out <file>  --no-intern\n"
      "              --simd <auto|scalar|sse4|avx2|neon>\n";
  return 1;
}

Result<std::vector<jsonsi::json::ValueRef>> ReadInput(
    const std::string& arg, const jsonsi::json::IngestOptions& ingest = {},
    jsonsi::json::IngestStats* stats = nullptr) {
  if (arg == "-") {
    std::stringstream buffer;
    buffer << std::cin.rdbuf();
    return jsonsi::json::ParseJsonLines(buffer.str(), ingest, stats);
  }
  return jsonsi::json::ReadJsonLinesFile(arg, ingest, stats);
}

// Degraded-mode report for inputs read with a non-strict policy.
void ReportIngest(const jsonsi::json::IngestStats& stats) {
  if (stats.malformed_lines == 0) return;
  std::cerr << "jsi: skipped " << stats.malformed_lines
            << " malformed line(s) of " << stats.lines_read << " ("
            << jsonsi::FormatFixed(100.0 * stats.ErrorRate(), 2) << "%)\n";
  for (const auto& e : stats.errors) {
    std::cerr << "jsi:   line " << e.line_number << " @ byte " << e.byte_offset
              << ": " << e.message << "\n";
  }
}

// Accepts both spellings: `--flag value` and `--flag=value`.
std::optional<std::string> FlagValue(std::vector<std::string>& args,
                                     const std::string& flag) {
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == flag && i + 1 < args.size()) {
      std::string value = args[i + 1];
      args.erase(args.begin() + i, args.begin() + i + 2);
      return value;
    }
    if (args[i].size() > flag.size() + 1 &&
        args[i].compare(0, flag.size(), flag) == 0 &&
        args[i][flag.size()] == '=') {
      std::string value = args[i].substr(flag.size() + 1);
      args.erase(args.begin() + i);
      return value;
    }
  }
  return std::nullopt;
}

bool Flag(std::vector<std::string>& args, const std::string& flag) {
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == flag) {
      args.erase(args.begin() + i);
      return true;
    }
  }
  return false;
}

int BadFlagValue(const std::string& flag, const std::string& value) {
  std::cerr << "jsi: " << flag << " needs a numeric value, got '" << value
            << "'\n";
  return Usage();
}

// Called by every subcommand once its known flags are consumed: what is
// left must be `min`..`max` positional arguments. A leftover `--flag` (a
// typo, or a flag this version does not have) or a surplus input is a usage
// error, never silently ignored. `-` (stdin) is a positional.
bool CheckPositionals(const std::vector<std::string>& args,
                      const char* command, size_t min, size_t max) {
  for (const std::string& arg : args) {
    if (arg.size() > 1 && arg[0] == '-') {
      std::cerr << "jsi: unknown " << command << " flag '" << arg << "'\n";
      return false;
    }
  }
  if (args.size() > max) {
    std::cerr << "jsi: " << command << " takes "
              << (max == 1 ? std::string("one input")
                           : "at most " + std::to_string(max) + " arguments")
              << ", got " << args.size() << "\n";
    return false;
  }
  return args.size() >= min;
}

// --stats report shared by the batch and checkpointed-streaming infer paths.
void PrintInferStats(const Schema& schema, size_t threads) {
  const auto& s = schema.stats;
  std::cerr << "threads:        " << threads << "\n"
            << "simd:           "
            << jsonsi::json::simd::KernelName(
                   jsonsi::json::simd::ActiveKernel())
            << "\n"
            << "records:        "
            << jsonsi::WithThousands(static_cast<int64_t>(s.record_count))
            << "\n"
            << "distinct types: "
            << jsonsi::WithThousands(
                   static_cast<int64_t>(s.distinct_type_count))
            << "\n"
            << "type size:      min " << s.min_type_size << " / max "
            << s.max_type_size << " / avg "
            << jsonsi::FormatFixed(s.avg_type_size, 1) << "\n"
            << "fused size:     " << schema.type->size() << "\n"
            << "inference:      " << jsonsi::FormatFixed(s.infer_seconds, 3)
            << "s\nfusion:         "
            << jsonsi::FormatFixed(s.fuse_seconds, 3) << "s\n";
  if (jsonsi::telemetry::Enabled()) {
    // Counter digest of the run (full detail goes to --metrics-out).
    auto snap = jsonsi::telemetry::MetricsRegistry::Global().Snapshot();
    std::cerr << "telemetry:      parse " << snap.CounterValue("parse.calls")
              << " / fuse " << snap.CounterValue("fuse.calls")
              << " / pool tasks "
              << snap.CounterValue("pool.tasks_completed") << " / retries "
              << snap.CounterValue("retry.retries") << "\n";
  }
  if (jsonsi::types::InterningEnabled()) {
    // Interning/memoization digest — always-on internal stats, no
    // telemetry needed (docs/performance.md).
    auto is = jsonsi::types::TypeInterner::Global().stats();
    auto cs = jsonsi::fusion::FuseCache::Global().stats();
    std::cerr << "interning:      "
              << jsonsi::FormatFixed(is.HitRate() * 100, 1)
              << "% intern hits (" << is.size << " live) / "
              << jsonsi::FormatFixed(cs.HitRate() * 100, 1)
              << "% fuse-cache hits (" << cs.size << " live)\n";
  }
}

// Checkpointed streaming inference: feed the input to a StreamingInferencer
// in --checkpoint-every-line batches and atomically save the full stream
// state after each one. --resume restores the checkpoint and restarts
// reading at its bytes_consumed offset; by associativity of fusion the
// final schema is TypeEquals-identical to an uninterrupted run.
int RunInferCheckpointed(jsonsi::io::InputSource& source,
                         const jsonsi::core::InferenceOptions& options,
                         const std::string& checkpoint_path, bool resume,
                         uint64_t checkpoint_every, uint64_t watermark_mb,
                         bool pretty, bool stats) {
  jsonsi::core::StreamingOptions sopts;
  sopts.parse = options.ingest.parse;
  sopts.on_malformed = options.ingest.on_malformed;
  sopts.max_error_rate = options.ingest.max_error_rate;
  sopts.min_lines_for_rate = options.ingest.min_lines_for_rate;
  sopts.max_recorded_errors = options.ingest.max_recorded_errors;
  sopts.soft_memory_limit_bytes = watermark_mb * (1ull << 20);
  jsonsi::core::StreamingInferencer stream(sopts);
  uint64_t pos = 0;
  if (resume) {
    jsonsi::Status loaded =
        jsonsi::core::LoadCheckpoint(checkpoint_path, &stream);
    if (!loaded.ok()) {
      std::cerr << "jsi: cannot resume: " << loaded << "\n";
      return 2;
    }
    pos = stream.ingest_stats().bytes_consumed;
    if (std::optional<uint64_t> size = source.SizeBytes();
        size && pos > *size) {
      std::cerr << "jsi: checkpoint offset " << pos
                << " is past the end of the input (" << *size
                << " bytes) — wrong input file?\n";
      return 2;
    }
    std::cerr << "jsi: resumed from " << checkpoint_path << " at byte " << pos
              << " (" << stream.record_count() << " records)\n";
  }

  uint64_t saves = 0;
  auto save = [&]() -> jsonsi::Status {
    jsonsi::Status st = jsonsi::core::SaveCheckpoint(stream, checkpoint_path);
    if (st.ok()) ++saves;
    return st;
  };
  // A checkpointed run is exactly the kind of long job that gets SIGTERMed
  // (deploys, preemption): arm the shared shutdown latch and save a final
  // checkpoint between batches instead of losing the run. Same drain
  // machinery `jsi serve` uses.
  jsonsi::server::InstallShutdownSignalHandlers();
  // The pipeline reader resumes at the checkpoint's exact bytes_consumed
  // offset and cuts batches on line boundaries, so batching never changes
  // what each Add call sees. Saves land between batches, whenever
  // --checkpoint-every lines have accumulated since the last one.
  jsonsi::io::PipelineReader reader(&source, options.io, pos);
  uint64_t last_saved_lines = stream.ingest_stats().lines_read;
  bool interrupted = false;
  jsonsi::Status save_failure;
  jsonsi::core::PumpOptions pump;
  pump.num_threads = options.num_threads;
  pump.after_batch = [&]() -> jsonsi::Result<bool> {
    if (jsonsi::server::ShutdownRequested()) {
      if (jsonsi::Status cp = save(); !cp.ok()) {
        save_failure = cp;
        return cp;
      }
      interrupted = true;
      return false;
    }
    if (stream.ingest_stats().lines_read - last_saved_lines >=
        checkpoint_every) {
      if (jsonsi::Status cp = save(); !cp.ok()) {
        save_failure = cp;
        return cp;
      }
      last_saved_lines = stream.ingest_stats().lines_read;
    }
    return true;
  };
  jsonsi::Status st = jsonsi::core::PumpJsonLines(reader, stream, pump);
  if (!save_failure.ok()) {
    std::cerr << "jsi: checkpoint save failed: " << save_failure << "\n";
    return 2;
  }
  if (!st.ok()) {
    // Persist the consistent pre-abort state: bytes_consumed points at
    // the aborting line, so a fixed-up input can be resumed in place.
    if (jsonsi::Status cp = save(); !cp.ok()) {
      std::cerr << "jsi: checkpoint save failed: " << cp << "\n";
    }
    std::cerr << "jsi: " << st << "\n";
    return 2;
  }
  if (interrupted) {
    std::cerr << "jsi: interrupted at byte "
              << stream.ingest_stats().bytes_consumed << " ("
              << stream.record_count() << " records) — state saved to "
              << checkpoint_path << "; rerun with --resume to continue\n";
    return 3;
  }
  // Always leave a final checkpoint behind (also covers an empty input or
  // an already-consumed resume) so the file reflects this run.
  if (jsonsi::Status cp = save(); !cp.ok()) {
    std::cerr << "jsi: checkpoint save failed: " << cp << "\n";
    return 2;
  }
  ReportIngest(stream.ingest_stats());
  Schema schema = stream.Snapshot();
  std::cout << schema.ToString(pretty) << "\n";
  if (stats) {
    size_t threads = options.num_threads
                         ? options.num_threads
                         : std::max(1u, std::thread::hardware_concurrency());
    PrintInferStats(schema, threads);
    std::cerr << "checkpoints:    " << saves << " save(s) to "
              << checkpoint_path << "\n"
              << "consumed:       "
              << jsonsi::WithThousands(
                     static_cast<int64_t>(stream.ingest_stats().bytes_consumed))
              << " bytes"
              << (stream.memory_degraded() ? " (memory watermark hit)" : "")
              << "\n";
  }
  return 0;
}

int RunInfer(std::vector<std::string> args) {
  bool pretty = Flag(args, "--pretty");
  bool stats = Flag(args, "--stats");
  jsonsi::core::InferenceOptions options;
  options.annotate = Flag(args, "--annotate");
  if (auto t = FlagValue(args, "--threads")) {
    try {
      options.num_threads = std::stoul(*t);
    } catch (const std::exception&) {
      return BadFlagValue("--threads", *t);
    }
  }
  if (auto p = FlagValue(args, "--partitions")) {
    try {
      options.num_partitions = std::stoul(*p);
    } catch (const std::exception&) {
      return BadFlagValue("--partitions", *p);
    }
  }
  if (Flag(args, "--skip-malformed")) {
    options.ingest.on_malformed = jsonsi::json::MalformedLinePolicy::kSkip;
  }
  if (auto r = FlagValue(args, "--max-error-rate")) {
    options.ingest.on_malformed =
        jsonsi::json::MalformedLinePolicy::kFailAboveRate;
    try {
      options.ingest.max_error_rate = std::stod(*r);
    } catch (const std::exception&) {
      return BadFlagValue("--max-error-rate", *r);
    }
  }
  // Parser budgets apply to every ingestion path (serial, chunk-parallel,
  // streamed, checkpointed) through ParseOptions; over-budget documents are
  // malformed lines under the active policy.
  if (auto d = FlagValue(args, "--max-depth")) {
    try {
      options.ingest.parse.max_depth = std::stoul(*d);
    } catch (const std::exception&) {
      return BadFlagValue("--max-depth", *d);
    }
  }
  if (auto b = FlagValue(args, "--max-line-bytes")) {
    try {
      options.ingest.parse.max_document_bytes = std::stoull(*b);
    } catch (const std::exception&) {
      return BadFlagValue("--max-line-bytes", *b);
    }
  }
  std::optional<std::string> checkpoint = FlagValue(args, "--checkpoint");
  bool resume = Flag(args, "--resume");
  uint64_t checkpoint_every = 100000;
  if (auto e = FlagValue(args, "--checkpoint-every")) {
    try {
      checkpoint_every = std::stoull(*e);
    } catch (const std::exception&) {
      return BadFlagValue("--checkpoint-every", *e);
    }
    if (checkpoint_every == 0) checkpoint_every = 1;
  }
  uint64_t watermark_mb = 0;
  if (auto m = FlagValue(args, "--memory-watermark-mb")) {
    try {
      watermark_mb = std::stoull(*m);
    } catch (const std::exception&) {
      return BadFlagValue("--memory-watermark-mb", *m);
    }
  }
  if (auto io = FlagValue(args, "--io")) {
    if (!jsonsi::io::ParseIoMode(*io, &options.io.mode)) {
      std::cerr << "jsi: --io wants auto|mmap|read|stream, got '" << *io
                << "'\n";
      return Usage();
    }
  }
  if (auto ra = FlagValue(args, "--read-ahead-mb")) {
    try {
      uint64_t mb = std::stoull(*ra);
      if (mb == 0) mb = 1;
      options.io.buffer_bytes = static_cast<size_t>(mb) << 20;
    } catch (const std::exception&) {
      return BadFlagValue("--read-ahead-mb", *ra);
    }
  }
  if (resume && !checkpoint) {
    std::cerr << "jsi: --resume needs --checkpoint <file>\n";
    return Usage();
  }
  if (options.annotate && checkpoint) {
    // The streaming inferencer keeps no annotation state (checkpoints
    // would have to persist the whole lattice); refuse up front instead of
    // silently dropping the flag.
    std::cerr << "jsi: --annotate is not supported with --checkpoint; "
                 "run without a checkpoint to collect annotations\n";
    return Usage();
  }
  if (!CheckPositionals(args, "infer", 1, 1)) return Usage();
  // The input source (mmap / pread / stdin pipe, per --io) replaces the old
  // whole-file slurp: mapped files take the zero-copy chunk-parallel path,
  // everything else pumps bounded batches, so files larger than RAM infer
  // in constant memory (see src/io/ and core/schema_inferencer.h).
  if (checkpoint) {
    Result<std::unique_ptr<jsonsi::io::InputSource>> source =
        jsonsi::io::OpenInputSource(args[0], options.io);
    if (!source.ok()) {
      std::cerr << "jsi: " << source.status().message() << "\n";
      return 2;
    }
    return RunInferCheckpointed(*source.value(), options, *checkpoint, resume,
                                checkpoint_every, watermark_mb, pretty,
                                stats);
  }
  jsonsi::json::IngestStats ingest_stats;
  SchemaInferencer inferencer(options);
  Result<Schema> result = inferencer.InferFromFile(args[0], &ingest_stats);
  if (!result.ok()) {
    // Open failures carry a clean "cannot open file: X" message; policy
    // aborts and other errors print the full status with its code.
    if (result.status().code() == jsonsi::StatusCode::kNotFound) {
      std::cerr << "jsi: " << result.status().message() << "\n";
    } else {
      std::cerr << "jsi: " << result.status() << "\n";
    }
    return 2;
  }
  ReportIngest(ingest_stats);
  Schema schema = std::move(result).value();
  std::cout << schema.ToString(pretty) << "\n";
  if (stats) PrintInferStats(schema, inferencer.options().num_threads);
  if (schema.annotation) {
    jsonsi::annotate::RefinementMap refinements =
        jsonsi::annotate::RefineTaggedUnions(*schema.annotation);
    if (refinements.empty()) {
      std::cout << "no tagged unions detected\n";
    } else {
      std::cout << jsonsi::annotate::FormatRefinements(refinements);
    }
    if (stats) {
      std::cerr << "annotation:     "
                << schema.annotation->TreeNodes() << " node(s) / "
                << jsonsi::WithThousands(
                       static_cast<int64_t>(schema.annotation->count))
                << " root value(s) / " << refinements.size()
                << " refined union(s)\n"
                << jsonsi::annotate::FormatAnnotation(*schema.annotation);
    }
  }
  return 0;
}

int RunGen(std::vector<std::string> args) {
  uint64_t seed = 42;
  if (auto s = FlagValue(args, "--seed")) {
    try {
      seed = std::stoull(*s);
    } catch (const std::exception&) {
      return BadFlagValue("--seed", *s);
    }
  }
  if (!CheckPositionals(args, "gen", 2, 2)) return Usage();
  uint64_t count = 0;
  try {
    count = std::stoull(args[1]);
  } catch (const std::exception&) {
    return BadFlagValue("<count>", args[1]);
  }
  jsonsi::datagen::DatasetId id;
  if (args[0] == "github") {
    id = jsonsi::datagen::DatasetId::kGitHub;
  } else if (args[0] == "twitter") {
    id = jsonsi::datagen::DatasetId::kTwitter;
  } else if (args[0] == "wikidata") {
    id = jsonsi::datagen::DatasetId::kWikidata;
  } else if (args[0] == "nytimes") {
    id = jsonsi::datagen::DatasetId::kNYTimes;
  } else {
    return Usage();
  }
  auto gen = jsonsi::datagen::MakeGenerator(id, seed);
  std::string line;
  for (uint64_t i = 0; i < count; ++i) {
    line.clear();
    jsonsi::json::AppendJson(*gen->Generate(i), &line);
    line.push_back('\n');
    std::cout << line;
  }
  return 0;
}

int RunPaths(std::vector<std::string> args) {
  if (!CheckPositionals(args, "paths", 1, 1)) return Usage();
  auto values = ReadInput(args[0]);
  if (!values.ok()) {
    std::cerr << "jsi: " << values.status() << "\n";
    return 2;
  }
  jsonsi::stats::PathCounter counter;
  for (const auto& v : values.value()) counter.Add(*v);
  for (const auto& [path, count] : counter.counts()) {
    std::cout << count << "\t" << path << "\n";
  }
  return 0;
}

int RunCheck(std::vector<std::string> args) {
  auto schema_text = FlagValue(args, "--schema");
  if (!CheckPositionals(args, "check", 1, 1) || !schema_text) return Usage();
  auto type = jsonsi::types::ParseType(*schema_text);
  if (!type.ok()) {
    std::cerr << "jsi: bad --schema: " << type.status() << "\n";
    return 1;
  }
  auto values = ReadInput(args[0]);
  if (!values.ok()) {
    std::cerr << "jsi: " << values.status() << "\n";
    return 2;
  }
  size_t failures = 0;
  for (size_t i = 0; i < values.value().size(); ++i) {
    auto mismatch = jsonsi::types::Explain(*values.value()[i], *type.value());
    if (mismatch) {
      if (++failures <= 5) {
        std::cerr << "record " << (i + 1) << ": at "
                  << (mismatch->path.empty() ? "<root>" : mismatch->path)
                  << ": " << mismatch->reason << "\n";
      }
    }
  }
  std::cout << (values.value().size() - failures) << "/"
            << values.value().size() << " records match\n";
  return failures ? 2 : 0;
}

int RunExport(std::vector<std::string> args) {
  bool annotate = Flag(args, "--annotate");
  if (!CheckPositionals(args, "export", 1, 1)) return Usage();
  auto values = ReadInput(args[0]);
  if (!values.ok()) {
    std::cerr << "jsi: " << values.status() << "\n";
    return 2;
  }
  jsonsi::core::InferenceOptions options;
  options.annotate = annotate;
  Schema schema = SchemaInferencer(options).InferFromValues(values.value());
  jsonsi::exporter::JsonSchemaOptions export_options;
  jsonsi::annotate::RefinementMap refinements;
  if (schema.annotation) {
    export_options.annotation = schema.annotation.get();
    refinements = jsonsi::annotate::RefineTaggedUnions(*schema.annotation);
    export_options.refinements = &refinements;
  }
  std::cout << jsonsi::exporter::ToJsonSchemaText(*schema.type,
                                                  /*pretty=*/true,
                                                  export_options)
            << "\n";
  return 0;
}

int RunAnnotate(std::vector<std::string> args) {
  bool stats = !Flag(args, "--no-stats");
  if (!CheckPositionals(args, "annotate", 1, 1)) return Usage();
  auto values = ReadInput(args[0]);
  if (!values.ok()) {
    std::cerr << "jsi: " << values.status() << "\n";
    return 2;
  }
  jsonsi::annotate::SchemaProfiler profiler;
  for (size_t i = 0; i < values.value().size(); ++i) {
    profiler.Observe(*values.value()[i], i);
  }
  std::cout << profiler.ToString(stats) << "\n";
  return 0;
}

jsonsi::Result<jsonsi::types::TypeRef> ReadTypeFile(const std::string& path) {
  jsonsi::Result<std::string> text = jsonsi::io::ReadFileToString(path);
  if (!text.ok()) return text.status();
  return jsonsi::types::ParseType(text.value());
}

// `jsi diff --data`: infer both datasets with annotations and report
// structural changes together with refinement drift.
int RunDiffData(const std::string& before_path, const std::string& after_path) {
  jsonsi::core::InferenceOptions options;
  options.annotate = true;
  SchemaInferencer inferencer(options);
  auto values_before = ReadInput(before_path);
  auto values_after = ReadInput(after_path);
  if (!values_before.ok() || !values_after.ok()) {
    std::cerr << "jsi: "
              << (values_before.ok() ? values_after.status()
                                     : values_before.status())
              << "\n";
    return 2;
  }
  Schema before = inferencer.InferFromValues(values_before.value());
  Schema after = inferencer.InferFromValues(values_after.value());
  auto changes = jsonsi::diff::DiffSchemas(before.type, after.type);
  jsonsi::annotate::RefinementMap refined_before, refined_after;
  if (before.annotation) {
    refined_before = jsonsi::annotate::RefineTaggedUnions(*before.annotation);
  }
  if (after.annotation) {
    refined_after = jsonsi::annotate::RefineTaggedUnions(*after.annotation);
  }
  auto drift = jsonsi::diff::DiffRefinements(refined_before, refined_after);
  changes.insert(changes.end(), drift.begin(), drift.end());
  std::stable_sort(changes.begin(), changes.end(),
                   [](const jsonsi::diff::SchemaChange& a,
                      const jsonsi::diff::SchemaChange& b) {
                     if (a.path != b.path) return a.path < b.path;
                     return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                   });
  if (changes.empty()) {
    std::cout << "schemas are identical\n";
    return 0;
  }
  std::cout << jsonsi::diff::FormatChanges(changes);
  return 2;
}

int RunDiff(std::vector<std::string> args) {
  bool data = Flag(args, "--data");
  if (!CheckPositionals(args, "diff", 2, 2)) return Usage();
  if (data) return RunDiffData(args[0], args[1]);
  auto before = ReadTypeFile(args[0]);
  auto after = ReadTypeFile(args[1]);
  if (!before.ok() || !after.ok()) {
    std::cerr << "jsi: " << (before.ok() ? after.status() : before.status())
              << "\n";
    return 2;
  }
  auto changes = jsonsi::diff::DiffSchemas(before.value(), after.value());
  if (changes.empty()) {
    std::cout << "schemas are identical\n";
    return 0;
  }
  std::cout << jsonsi::diff::FormatChanges(changes);
  return 2;
}

int RunAnalyze(std::vector<std::string> args) {
  if (!CheckPositionals(args, "analyze", 1, 1)) return Usage();
  auto values = ReadInput(args[0]);
  if (!values.ok()) {
    std::cerr << "jsi: " << values.status() << "\n";
    return 2;
  }
  Schema schema = SchemaInferencer().InferFromValues(values.value());
  auto findings = jsonsi::stats::DetectKeyAsData(schema.type);
  if (findings.empty()) {
    std::cout << "no key-as-data positions detected\n";
    return 0;
  }
  for (const auto& f : findings) {
    std::cout << (f.path.empty() ? "<root>" : f.path) << ": "
              << f.field_count << " keys, "
              << jsonsi::FormatFixed(100 * f.uniformity, 0)
              << "% share shape '" << f.dominant_kinds << "', "
              << jsonsi::FormatFixed(100 * f.optional_fraction, 0)
              << "% optional -> looks like a map keyed by data\n";
  }
  return 0;
}

int RunExpand(std::vector<std::string> args) {
  auto pattern = FlagValue(args, "--pattern");
  if (!CheckPositionals(args, "expand", 1, 1) || !pattern) return Usage();
  auto values = ReadInput(args[0]);
  if (!values.ok()) {
    std::cerr << "jsi: " << values.status() << "\n";
    return 2;
  }
  Schema schema = SchemaInferencer().InferFromValues(values.value());
  auto expanded = jsonsi::query::ExpandPathPattern(*schema.type, *pattern);
  if (expanded.empty()) {
    std::cout << "pattern matches no schema path (dead query)\n";
    return 2;
  }
  for (const auto& path : expanded) std::cout << path << "\n";
  return 0;
}

int RunRepo(std::vector<std::string> args) {
  // `repo add <repo> <source> <input>` or `repo show <repo> [source]`.
  if (!CheckPositionals(args, "repo", 2, 4)) return Usage();
  const std::string& action = args[0];
  const std::string& path = args[1];
  if (action == "add") {
    if (args.size() != 4) return Usage();
    jsonsi::repository::SchemaRepository repo;
    if (auto loaded = jsonsi::repository::SchemaRepository::LoadFromFile(path);
        loaded.ok()) {
      repo = std::move(loaded).value();
    }  // a missing file means a fresh repository
    auto values = ReadInput(args[3]);
    if (!values.ok()) {
      std::cerr << "jsi: " << values.status() << "\n";
      return 2;
    }
    Schema schema = SchemaInferencer().InferFromValues(values.value());
    const auto* before = repo.Current(args[2]);
    uint64_t version_before = before ? before->version : 0;
    auto st = repo.RegisterBatch(args[2], schema.type,
                                 values.value().size());
    if (!st.ok()) {
      std::cerr << "jsi: " << st << "\n";
      return 2;
    }
    const auto* current = repo.Current(args[2]);
    if (current->version != version_before && version_before != 0) {
      std::cout << "schema drift -> v" << current->version << "\n"
                << jsonsi::diff::FormatChanges(current->changes);
    } else {
      std::cout << "source " << args[2] << " at v" << current->version
                << " (" << current->cumulative_records << " records)\n";
    }
    if (auto save = repo.SaveToFile(path); !save.ok()) {
      std::cerr << "jsi: " << save << "\n";
      return 2;
    }
    return 0;
  }
  if (action == "show") {
    if (args.size() > 3) return Usage();
    auto loaded = jsonsi::repository::SchemaRepository::LoadFromFile(path);
    if (!loaded.ok()) {
      std::cerr << "jsi: " << loaded.status() << "\n";
      return 2;
    }
    const auto& repo = loaded.value();
    if (args.size() == 2) {
      for (const std::string& source : repo.Sources()) {
        const auto* current = repo.Current(source);
        std::cout << source << "  v" << current->version << "  "
                  << current->cumulative_records << " records\n";
      }
      return 0;
    }
    const auto* history = repo.History(args[2]);
    if (!history) {
      std::cerr << "jsi: unknown source " << args[2] << "\n";
      return 2;
    }
    for (const auto& v : *history) {
      std::cout << "v" << v.version << "  records<=" << v.cumulative_records
                << "  changes=" << v.changes.size() << "\n"
                << "  " << jsonsi::types::ToString(*v.schema) << "\n";
    }
    return 0;
  }
  return Usage();
}

int RunCodegen(std::vector<std::string> args) {
  jsonsi::exporter::CppCodegenOptions options;
  if (auto root = FlagValue(args, "--root")) options.root_name = *root;
  if (auto ns = FlagValue(args, "--namespace")) options.namespace_name = *ns;
  if (!CheckPositionals(args, "codegen", 1, 1)) return Usage();
  auto values = ReadInput(args[0]);
  if (!values.ok()) {
    std::cerr << "jsi: " << values.status() << "\n";
    return 2;
  }
  Schema schema = SchemaInferencer().InferFromValues(values.value());
  std::cout << jsonsi::exporter::ToCppStructs(schema.type, options);
  return 0;
}

int RunServe(std::vector<std::string> args) {
  jsonsi::server::ServerOptions options;
  if (auto p = FlagValue(args, "--port")) {
    try {
      options.port = static_cast<uint16_t>(std::stoul(*p));
    } catch (const std::exception&) {
      return BadFlagValue("--port", *p);
    }
  }
  if (auto b = FlagValue(args, "--bind")) options.bind_address = *b;
  if (auto t = FlagValue(args, "--threads")) {
    try {
      options.num_threads = std::stoul(*t);
    } catch (const std::exception&) {
      return BadFlagValue("--threads", *t);
    }
  }
  if (auto r = FlagValue(args, "--repo")) options.repository_path = *r;
  if (auto m = FlagValue(args, "--max-body-mb")) {
    try {
      options.http.max_body_bytes = std::stoull(*m) * (1ull << 20);
    } catch (const std::exception&) {
      return BadFlagValue("--max-body-mb", *m);
    }
  }
  if (!CheckPositionals(args, "serve", 0, 0)) return Usage();

  jsonsi::server::InferenceServer server(options);
  if (jsonsi::Status st = server.Start(); !st.ok()) {
    std::cerr << "jsi: " << st << "\n";
    return 2;
  }
  // Machine-parseable so scripts can grab the (possibly ephemeral) port.
  std::cout << "jsi: serving on http://" << options.bind_address << ":"
            << server.port() << "\n"
            << std::flush;
  jsonsi::server::InstallShutdownSignalHandlers();
  jsonsi::server::WaitForShutdown();
  std::cerr << "jsi: shutdown signal — draining " << server.sessions().size()
            << " live session(s)\n";
  jsonsi::Status stopped = server.Stop();
  if (!stopped.ok()) {
    std::cerr << "jsi: drain checkpoint failed: " << stopped << "\n";
    return 2;
  }
  return 0;
}

}  // namespace

int Dispatch(const std::string& command, std::vector<std::string> args) {
  if (command == "infer") return RunInfer(std::move(args));
  if (command == "gen") return RunGen(std::move(args));
  if (command == "paths") return RunPaths(std::move(args));
  if (command == "check") return RunCheck(std::move(args));
  if (command == "export") return RunExport(std::move(args));
  if (command == "annotate") return RunAnnotate(std::move(args));
  if (command == "diff") return RunDiff(std::move(args));
  if (command == "analyze") return RunAnalyze(std::move(args));
  if (command == "expand") return RunExpand(std::move(args));
  if (command == "repo") return RunRepo(std::move(args));
  if (command == "codegen") return RunCodegen(std::move(args));
  if (command == "serve") return RunServe(std::move(args));
  return Usage();
}

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);

  // Global observability flags, valid on every subcommand. Either one turns
  // the (otherwise free) telemetry layer on for the whole process.
  std::string metrics_out = FlagValue(args, "--metrics-out").value_or("");
  std::string trace_out = FlagValue(args, "--trace-out").value_or("");
  const bool telemetry_on = !metrics_out.empty() || !trace_out.empty();
  if (telemetry_on) jsonsi::telemetry::SetEnabled(true);
  // Opt out of the interning/memoization acceleration (identity-preserving,
  // so only timings change).
  if (Flag(args, "--no-intern")) jsonsi::types::SetInterningEnabled(false);
  // Pin the structural-index scan kernel (parity-identical output; only
  // throughput changes). Overrides JSI_FORCE_KERNEL.
  if (auto simd = FlagValue(args, "--simd")) {
    jsonsi::Status forced = jsonsi::json::simd::ForceKernel(*simd);
    if (!forced.ok()) {
      std::cerr << "jsi: " << forced << "\n";
      return Usage();
    }
  }

  int rc = Dispatch(command, std::move(args));

  if (telemetry_on) {
    jsonsi::telemetry::FileSink sink(metrics_out, trace_out);
    jsonsi::Status flushed = jsonsi::telemetry::Flush(sink);
    if (!flushed.ok()) {
      std::cerr << "jsi: telemetry flush failed: " << flushed << "\n";
      if (rc == 0) rc = 2;
    }
  }
  return rc;
}
