#include "inference/direct_infer.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>

#include "json/line_scan.h"
#include "json/simd/kernel.h"
#include "json/tokenizer.h"
#include "telemetry/telemetry.h"
#include "types/interner.h"

namespace jsonsi::inference {

using json::Token;
using json::TokenKind;
using json::Tokenizer;
using types::FieldType;
using types::Type;
using types::TypeRef;

namespace {

// Iterative grammar driver: the parser's recursive descent flattened onto
// an explicit frame stack. Every error check runs in the same order and at
// the same cursor position as the recursive parser, so statuses match byte
// for byte (differential-tested). Tokens are pulled only at value
// positions — at key and separator positions the parser reports grammar
// errors before lexing anything, so this driver peeks instead.
//
// What a document *produces* is the Sink's business: TypeBuilder assembles
// the Figure 4 type, AnnotationObserver folds statistics into an
// accumulator. The driver reports the structure to the sink as it goes —
// a scalar, an empty or opened container, a key, the end of a field or
// element, a closing container.
template <class Sink>
class DirectInferrer {
 public:
  DirectInferrer(std::string_view text, const json::ParseOptions& options,
                 Sink* sink)
      : tok_(text), options_(options), sink_(sink) {}

  // One whole document: the value plus the trailing-content check.
  Status Infer() {
    JSONSI_RETURN_IF_ERROR(Run());
    if (!options_.allow_trailing_content) {
      tok_.SkipWhitespace();
      if (!tok_.AtEnd()) {
        return tok_.ErrorHere("trailing content after JSON value");
      }
    }
    return Status::OK();
  }

  // Drives the first value of the text through the sink.
  Status Run() {
    for (;;) {
      // --- Value position: the only place a token is pulled. ---
      Token t;
      if constexpr (Sink::kUnescapeValues) {
        // The extra buffer changes no validation or error position.
        val_buf_.clear();
        JSONSI_RETURN_IF_ERROR(tok_.Next(&t, &val_buf_));
      } else {
        JSONSI_RETURN_IF_ERROR(tok_.Next(&t));
      }
      switch (t.kind) {
        case TokenKind::kNull:
        case TokenKind::kTrue:
        case TokenKind::kFalse:
        case TokenKind::kNumber:
        case TokenKind::kString:
          sink_->Scalar(t, val_buf_);
          break;
        case TokenKind::kEnd:
          return Tokenizer::ErrorAt(t, "unexpected end of input");
        case TokenKind::kLBrace: {
          if (record_frames_.size() >= options_.max_depth) {
            return Tokenizer::ErrorAt(t, "nesting too deep");
          }
          tok_.SkipWhitespace();
          if (!tok_.AtEnd() && tok_.Peek() == '}') {
            tok_.Advance();
            sink_->EmptyRecord();
            break;
          }
          record_frames_.push_back(true);
          sink_->OpenRecord();
          JSONSI_RETURN_IF_ERROR(ReadKey());
          continue;  // next value = first field value
        }
        case TokenKind::kLBracket: {
          if (record_frames_.size() >= options_.max_depth) {
            return Tokenizer::ErrorAt(t, "nesting too deep");
          }
          tok_.SkipWhitespace();
          if (!tok_.AtEnd() && tok_.Peek() == ']') {
            tok_.Advance();
            sink_->EmptyArray();
            break;
          }
          record_frames_.push_back(false);
          sink_->OpenArray();
          continue;  // next value = first element
        }
        default:
          // Stray punctuation at a value position: the parser falls into
          // ParseNumber and fails at the token's first byte.
          return Tokenizer::ErrorAt(t, "invalid number");
      }

      // --- A value closed: unwind frames until one needs another value. ---
      for (;;) {
        if (record_frames_.empty()) return Status::OK();
        if (record_frames_.back()) {
          sink_->EndField();
          tok_.SkipWhitespace();
          if (tok_.AtEnd()) return tok_.ErrorHere("unterminated record");
          char c = tok_.Peek();
          if (c == ',') {
            tok_.Advance();
            JSONSI_RETURN_IF_ERROR(ReadKey());
            break;  // back to value position
          }
          if (c == '}') {
            tok_.Advance();
            record_frames_.pop_back();
            JSONSI_RETURN_IF_ERROR(sink_->CloseRecord(tok_));
            continue;  // keep unwinding
          }
          return tok_.ErrorHere("expected ',' or '}' in record");
        }
        sink_->EndElement();
        tok_.SkipWhitespace();
        if (tok_.AtEnd()) return tok_.ErrorHere("unterminated array");
        char c = tok_.Peek();
        if (c == ',') {
          tok_.Advance();
          break;  // back to value position
        }
        if (c == ']') {
          tok_.Advance();
          record_frames_.pop_back();
          sink_->CloseArray();
          continue;  // keep unwinding
        }
        return tok_.ErrorHere("expected ',' or ']' in array");
      }
    }
  }

 private:
  // Key and colon, then the sink's field entry. Mirrors the top of the
  // parser's record loop, including the order of its error checks.
  Status ReadKey() {
    tok_.SkipWhitespace();
    if (tok_.AtEnd() || tok_.Peek() != '"') {
      return tok_.ErrorHere("expected record key string");
    }
    Token key;
    key_buf_.clear();
    JSONSI_RETURN_IF_ERROR(tok_.Next(&key, &key_buf_));
    tok_.SkipWhitespace();
    if (tok_.AtEnd() || tok_.Peek() != ':') {
      return tok_.ErrorHere("expected ':' after key");
    }
    tok_.Advance();
    sink_->Key(key_buf_);
    return Status::OK();
  }

  Tokenizer tok_;
  const json::ParseOptions& options_;
  Sink* sink_;
  std::vector<bool> record_frames_;  // one per open container: record?
  std::string key_buf_;              // reused unescape buffer for keys
  std::string val_buf_;              // reused unescape buffer for values
};

// Builds the Figure 4 type bottom-up: record and array nodes are assembled
// as they close (and hash-consed right there when interning is enabled),
// string and number payloads are never copied.
class TypeBuilder {
 public:
  static constexpr bool kUnescapeValues = false;

  TypeBuilder() : intern_(types::InterningEnabled()) {}

  void Scalar(const Token& t, std::string_view /*unescaped*/) {
    switch (t.kind) {
      case TokenKind::kNull:
        closed_ = Type::Null();
        return;
      case TokenKind::kNumber:
        closed_ = Type::Num();
        return;
      case TokenKind::kString:
        closed_ = Type::Str();
        return;
      default:
        closed_ = Type::Bool();
        return;
    }
  }
  void EmptyRecord() { closed_ = MakeRecord({}); }
  void EmptyArray() { closed_ = MakeArray({}); }
  void OpenRecord() { starts_.push_back(fields_.size()); }
  void OpenArray() { starts_.push_back(elems_.size()); }
  void Key(const std::string& key) {
    fields_.push_back(FieldType{key, nullptr, /*optional=*/false});
  }
  // fields_.back() is the innermost record's pending field (nested records
  // consume their fields before the driver unwinds back to it).
  void EndField() { fields_.back().type = std::move(closed_); }
  void EndElement() { elems_.push_back(std::move(closed_)); }

  // Pops the top record frame into a record type node. Keys are compared
  // unescaped (so "A" and "A" collide, as on the DOM path), and the
  // duplicate-key message + position match Value::Record's rejection as
  // re-wrapped by the parser: reported just past the closing '}'.
  Status CloseRecord(const Tokenizer& tok) {
    const size_t start = starts_.back();
    starts_.pop_back();
    auto first = fields_.begin() + static_cast<ptrdiff_t>(start);
    std::sort(first, fields_.end(),
              [](const FieldType& a, const FieldType& b) {
                return a.key < b.key;
              });
    for (size_t i = start; i + 1 < fields_.size(); ++i) {
      if (fields_[i].key == fields_[i + 1].key) {
        return tok.ErrorHere("duplicate record key: \"" + fields_[i].key +
                             "\"");
      }
    }
    std::vector<FieldType> fields(std::make_move_iterator(first),
                                  std::make_move_iterator(fields_.end()));
    fields_.resize(start);
    closed_ = MakeRecord(std::move(fields));
    return Status::OK();
  }

  void CloseArray() {
    const size_t start = starts_.back();
    starts_.pop_back();
    auto first = elems_.begin() + static_cast<ptrdiff_t>(start);
    std::vector<TypeRef> elements(std::make_move_iterator(first),
                                  std::make_move_iterator(elems_.end()));
    elems_.resize(start);
    closed_ = MakeArray(std::move(elements));
  }

  // The document's type, once the driver has returned OK.
  TypeRef Take() { return std::move(closed_); }

 private:
  // Same interning policy as InferNode: record/array nodes are hash-consed
  // bottom-up when interning is enabled; leaves are already singletons.
  TypeRef MakeRecord(std::vector<FieldType> fields) {
    TypeRef t = Type::RecordFromSorted(std::move(fields));
    return intern_ ? types::TypeInterner::Global().Intern(std::move(t)) : t;
  }

  TypeRef MakeArray(std::vector<TypeRef> elements) {
    TypeRef t = Type::ArrayExact(std::move(elements));
    return intern_ ? types::TypeInterner::Global().Intern(std::move(t)) : t;
  }

  const bool intern_;
  TypeRef closed_;                 // the value that just closed
  std::vector<size_t> starts_;     // per open container: accumulator index
  std::vector<FieldType> fields_;  // shared field accumulator
  std::vector<TypeRef> elems_;     // shared element accumulator
};

// Folds one document's statistics straight into an accumulator, the
// tokenizer-driven twin of annotate::ObserveValue. Builds no type nodes.
// Runs only over text the TypeBuilder pass accepted, so nothing it
// observes ever needs undoing (and duplicate keys cannot occur).
class AnnotationObserver {
 public:
  // String statistics use the unescaped payload.
  static constexpr bool kUnescapeValues = true;

  explicit AnnotationObserver(annotate::Annotation* root) {
    targets_.push_back(root);
  }

  void Scalar(const Token& t, std::string_view unescaped) {
    annotate::Annotation* a = targets_.back();
    switch (t.kind) {
      case TokenKind::kNull:
        a->ObserveNull(&scalar_);
        break;
      case TokenKind::kNumber: {
        // Re-parse the validated lexeme with the same std::from_chars the
        // DOM parser's ScanNumber uses — bit-identical doubles.
        double d = 0;
        std::from_chars(t.text.data(), t.text.data() + t.text.size(), d);
        a->ObserveNum(d, &scalar_);
        break;
      }
      case TokenKind::kString:
        a->ObserveStr(unescaped, &scalar_);
        break;
      default:
        a->ObserveBool(t.kind == TokenKind::kTrue, &scalar_);
        break;
    }
    has_scalar_ = true;
  }
  void EmptyRecord() {
    annotate::Annotation* a = targets_.back();
    a->ObserveRecordOpen();
    a->ObserveShape({}, {});
  }
  void EmptyArray() { targets_.back()->ObserveArray(0); }
  void OpenRecord() {
    annotate::Annotation* a = targets_.back();
    a->ObserveRecordOpen();
    frames_.push_back(Frame{a, fields_.size(), 0});
  }
  void OpenArray() {
    annotate::Annotation* a = targets_.back();
    frames_.push_back(Frame{a, 0, 0});
    targets_.push_back(a->ItemsEntry());  // enter the items position
  }
  void Key(const std::string& key) {
    fields_.push_back(Field{Slice{bytes_.size(), key.size()}, Slice{0, 0}});
    bytes_ += key;
    // Enter the field position: the next value observes into this node.
    targets_.push_back(frames_.back().ann->ObserveFieldEntry(key));
  }
  // fields_.back() is the innermost record's pending field, as in
  // TypeBuilder::EndField.
  void EndField() {
    targets_.pop_back();  // leave the field position
    if (has_scalar_) {
      fields_.back().encoded = Slice{bytes_.size(), scalar_.size()};
      bytes_ += scalar_;
      has_scalar_ = false;
    }
  }
  // Array elements contribute no shape evidence.
  void EndElement() {
    ++frames_.back().length;
    has_scalar_ = false;
  }

  // Registers the record's shape: the same signature scheme as the DOM
  // path — each sorted key followed by a separator (so {} and {"":x} stay
  // distinct) — and its scalar fields.
  Status CloseRecord(const Tokenizer& /*tok*/) {
    const size_t start = frames_.back().start;
    annotate::Annotation* ann = frames_.back().ann;
    frames_.pop_back();
    sorted_keys_.clear();
    shape_fields_.clear();
    for (size_t i = start; i < fields_.size(); ++i) {
      const std::string_view key = View(fields_[i].key);
      sorted_keys_.push_back(key);
      if (fields_[i].encoded.size > 0) {
        shape_fields_.push_back({key, View(fields_[i].encoded)});
      }
    }
    std::sort(sorted_keys_.begin(), sorted_keys_.end());
    signature_.clear();
    for (std::string_view key : sorted_keys_) {
      signature_ += key;
      signature_ += '\x1f';
    }
    ann->ObserveShape(signature_, shape_fields_);
    bytes_.resize(fields_[start].key.begin);
    fields_.resize(start);
    return Status::OK();
  }

  void CloseArray() {
    const Frame frame = frames_.back();
    frames_.pop_back();
    targets_.pop_back();  // leave the items position
    frame.ann->ObserveArray(frame.length);
  }

 private:
  // A byte range of bytes_ (offsets survive its growth).
  struct Slice {
    size_t begin;
    size_t size;
  };
  // One field of an open record: its key and, for a scalar value, the
  // value's encoding (encodings are never empty).
  struct Field {
    Slice key;
    Slice encoded;
  };
  // One open container: its accumulator, where a record's fields begin in
  // fields_, and an array's length so far.
  struct Frame {
    annotate::Annotation* ann;
    size_t start;
    uint64_t length;
  };

  std::string_view View(Slice s) const {
    return std::string_view(bytes_).substr(s.begin, s.size);
  }

  // The accumulator the next value observes into: the root, the current
  // field's node, or the enclosing array's items node.
  std::vector<annotate::Annotation*> targets_;
  std::vector<Frame> frames_;
  // Fields of the open records, stacked like TypeBuilder::fields_; their
  // keys and encodings live in bytes_, truncated as records close.
  std::vector<Field> fields_;
  std::string bytes_;
  std::string scalar_;  // encoding of the scalar that just closed
  bool has_scalar_ = false;
  // CloseRecord scratch, reused across records.
  std::vector<std::string_view> sorted_keys_;
  std::string signature_;
  std::vector<annotate::ScalarField> shape_fields_;
};

}  // namespace

Result<TypeRef> DirectInferType(std::string_view text,
                                const json::ParseOptions& options,
                                annotate::Annotation* ann) {
  if (options.max_document_bytes != 0 &&
      text.size() > options.max_document_bytes) {
    return json::DocumentTooLarge(text.size(), options.max_document_bytes);
  }
  TypeBuilder builder;
  Status st = DirectInferrer<TypeBuilder>(text, options, &builder).Infer();
  Result<TypeRef> result =
      st.ok() ? Result<TypeRef>(builder.Take()) : Result<TypeRef>(st);
  if (st.ok() && ann != nullptr) {
    // Validate, then observe: the document was accepted above, so the
    // observation pass cannot fail and `ann` never sees a partial record.
    AnnotationObserver observer(ann);
    (void)DirectInferrer<AnnotationObserver>(text, options, &observer).Run();
  }
  if (telemetry::Enabled()) {
    JSONSI_COUNTER("infer.direct.bytes").Add(text.size());
    json::simd::AddKernelBytes(text.size());
    if (result.ok()) {
      JSONSI_COUNTER("infer.direct.records").Increment();
      JSONSI_COUNTER("infer.direct.dom_bypassed").Increment();
      JSONSI_HISTOGRAM("infer.type_size").Record(result.value()->size());
      if (ann != nullptr) JSONSI_COUNTER("annotate.records").Increment();
    } else {
      JSONSI_COUNTER("infer.direct.errors").Increment();
    }
  }
  return result;
}

TypedChunkOutcome InferJsonLinesChunk(std::string_view chunk,
                                      const json::ParseOptions& parse,
                                      size_t max_recorded_errors,
                                      bool first_chunk, bool annotate) {
  JSONSI_SPAN("infer.direct.chunk");
  TypedChunkOutcome out;
  if (annotate) out.annotation = std::make_unique<annotate::Annotation>();
  size_t pos = 0;
  // Same line splitting as the serial line machinery in json/jsonl.cc:
  // '\n'-delimited, the byte offset advances past the consumed newline, a
  // trailing '\n' yields no final empty line.
  while (pos < chunk.size()) {
    size_t nl = json::simd::FindNewline(chunk, pos);
    size_t end = nl;
    std::string_view line = chunk.substr(pos, end - pos);
    uint64_t line_start = pos;
    pos = nl < chunk.size() ? nl + 1 : chunk.size();
    out.stats.bytes_read = pos;
    // Every line is fully processed at the chunk stage (the abort decision
    // is the replay's); the resume offset tracks the scan.
    out.stats.bytes_consumed = pos;
    ++out.stats.lines_read;
    line = json::internal::UndecorateLine(
        line, first_chunk && out.stats.lines_read == 1);
    if (json::internal::IsBlankLine(line)) {
      ++out.stats.blank_lines;
      continue;
    }
    // A malformed line leaves the accumulator untouched (validate, then
    // observe), so it folds every record straight in.
    Result<TypeRef> type = DirectInferType(line, parse, out.annotation.get());
    if (type.ok()) {
      ++out.stats.records;
      out.types.push_back(std::move(type).value());
      continue;
    }
    // Malformed: record unconditionally (the policy runs at replay time) and
    // snapshot the local counters so the replay can truncate here.
    ++out.stats.malformed_lines;
    if (out.stats.malformed_lines == 1) {
      out.first_error_message = type.status().message();
    }
    if (out.stats.errors.size() < max_recorded_errors) {
      out.stats.errors.push_back(json::IngestError{
          out.stats.lines_read, line_start, type.status().message()});
    }
    out.malformed.push_back(json::ChunkIngest::MalformedAt{
        out.stats.lines_read, out.stats.blank_lines, out.stats.records,
        out.stats.malformed_lines, out.stats.bytes_read, line_start});
  }
  return out;
}

json::ChunkReplay ReplayChunkPolicy(
    const std::vector<TypedChunkOutcome>& outcomes,
    const json::IngestOptions& options, json::IngestStats* stats) {
  std::vector<const json::ChunkIngest*> views;
  views.reserve(outcomes.size());
  for (const TypedChunkOutcome& o : outcomes) views.push_back(&o);
  return json::ReplayChunkPolicy(views, options, stats);
}

std::vector<TypeRef> TakeIncludedTypes(
    std::vector<TypedChunkOutcome>&& outcomes,
    const json::ChunkReplay& replay) {
  size_t total = 0;
  for (size_t c = 0; c < replay.full_chunks && c < outcomes.size(); ++c) {
    total += outcomes[c].types.size();
  }
  total += replay.partial_records;
  std::vector<TypeRef> types;
  types.reserve(total);
  for (size_t c = 0; c < replay.full_chunks && c < outcomes.size(); ++c) {
    auto& chunk_types = outcomes[c].types;
    types.insert(types.end(), std::make_move_iterator(chunk_types.begin()),
                 std::make_move_iterator(chunk_types.end()));
  }
  if (replay.partial_records > 0 && replay.full_chunks < outcomes.size()) {
    auto& chunk_types = outcomes[replay.full_chunks].types;
    size_t keep = std::min(replay.partial_records, chunk_types.size());
    types.insert(types.end(), std::make_move_iterator(chunk_types.begin()),
                 std::make_move_iterator(chunk_types.begin() + keep));
  }
  return types;
}

}  // namespace jsonsi::inference
