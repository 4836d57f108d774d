#include "annotate/annotation.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <system_error>

#include "support/hash.h"

namespace jsonsi::annotate {

using json::Value;
using json::ValueKind;
using json::ValueRef;

// -- Scalar encodings -------------------------------------------------------

namespace {

// The encoders write into a caller's buffer so the observers can reuse one.
void EncodeNumInto(double n, std::string* out) {
  // Shortest round-trip form, the same on every path because every path
  // parses numbers through the same std::from_chars scan.
  if (n == 0) n = 0.0;  // one encoding for -0.0/0.0, matching MinMax
  char buf[32];
  std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), n);
  out->assign(1, 'n');
  out->append(buf, r.ptr);
}

void EncodeStrInto(std::string_view unescaped, std::string* out) {
  out->assign(1, 's');
  out->append(unescaped);
}

}  // namespace

std::string EncodeNull() { return "z"; }

std::string EncodeBool(bool b) { return b ? "b1" : "b0"; }

std::string EncodeNum(double n) {
  std::string out;
  EncodeNumInto(n, &out);
  return out;
}

std::string EncodeStr(std::string_view unescaped) {
  std::string out;
  EncodeStrInto(unescaped, &out);
  return out;
}

std::string DecodeScalarDisplay(const std::string& encoded) {
  if (encoded.empty()) return "?";
  switch (encoded.front()) {
    case 'z':
      return "null";
    case 'b':
      return encoded == "b1" ? "true" : "false";
    case 'n':
      return encoded.substr(1);
    case 's': {
      std::string out = "\"";
      out.append(encoded, 1, std::string::npos);
      out.push_back('"');
      return out;
    }
    default:
      return "?";
  }
}

json::ValueRef DecodeScalarValue(const std::string& encoded) {
  if (encoded.empty()) return Value::Null();
  switch (encoded.front()) {
    case 'z':
      return Value::Null();
    case 'b':
      return Value::Bool(encoded == "b1");
    case 'n': {
      double d = 0;
      std::from_chars(encoded.data() + 1, encoded.data() + encoded.size(), d);
      return Value::Num(d);
    }
    case 's':
      return Value::Str(encoded.substr(1));
    default:
      return Value::Null();
  }
}

// -- MinMax -----------------------------------------------------------------

void MinMax::Observe(double v) {
  if (v == 0) v = 0.0;  // canonicalize -0.0 so merge order cannot show
  if (!seen) {
    seen = true;
    min = max = v;
    return;
  }
  min = std::min(min, v);
  max = std::max(max, v);
}

void MinMax::MergeFrom(const MinMax& other) {
  if (!other.seen) return;
  if (!seen) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

bool MinMax::Equals(const MinMax& other) const {
  if (seen != other.seen) return false;
  return !seen || (min == other.min && max == other.max);
}

void MinMaxU64::Observe(uint64_t v) {
  if (!seen) {
    seen = true;
    min = max = v;
    return;
  }
  min = std::min(min, v);
  max = std::max(max, v);
}

void MinMaxU64::MergeFrom(const MinMaxU64& other) {
  if (!other.seen) return;
  if (!seen) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

bool MinMaxU64::Equals(const MinMaxU64& other) const {
  if (seen != other.seen) return false;
  return !seen || (min == other.min && max == other.max);
}

// -- DistinctSample ---------------------------------------------------------

void DistinctSample::Observe(std::string_view encoded) {
  ++observations;
  if (encoded.size() > kMaxSampledScalarBytes) {
    // Counted, sketched by the caller, but not kept: the predicate depends
    // only on the value, so every merge order drops exactly the same
    // values and sets the same flag.
    truncated = true;
    return;
  }
  auto it = std::lower_bound(values.begin(), values.end(), encoded);
  if (it != values.end() && *it == encoded) return;
  if (values.size() >= kDistinctSampleCap) {
    truncated = true;
    if (it == values.end()) return;  // larger than everything kept
    values.insert(it, std::string(encoded));
    values.pop_back();
    return;
  }
  values.insert(it, std::string(encoded));
}

void DistinctSample::MergeFrom(const DistinctSample& other) {
  observations += other.observations;
  truncated = truncated || other.truncated;
  if (other.values.empty()) return;
  std::vector<std::string> merged;
  merged.reserve(values.size() + other.values.size());
  std::set_union(values.begin(), values.end(), other.values.begin(),
                 other.values.end(), std::back_inserter(merged));
  if (merged.size() > kDistinctSampleCap) {
    merged.resize(kDistinctSampleCap);
    truncated = true;
  }
  values = std::move(merged);
}

bool DistinctSample::Equals(const DistinctSample& other) const {
  return observations == other.observations && truncated == other.truncated &&
         values == other.values;
}

// -- DistinctSketch ---------------------------------------------------------

void DistinctSketch::Observe(std::string_view encoded) {
  uint64_t h = HashBytes(encoded);
  size_t idx = static_cast<size_t>(h & (kSketchRegisters - 1));
  uint64_t w = h >> 8;  // 56 payload bits
  uint8_t rank =
      w == 0 ? 57 : static_cast<uint8_t>(std::countl_zero(w) - 8 + 1);
  registers[idx] = std::max(registers[idx], rank);
}

void DistinctSketch::MergeFrom(const DistinctSketch& other) {
  for (size_t i = 0; i < kSketchRegisters; ++i) {
    registers[i] = std::max(registers[i], other.registers[i]);
  }
}

double DistinctSketch::Estimate() const {
  constexpr double m = static_cast<double>(kSketchRegisters);
  constexpr double alpha = 0.7213 / (1.0 + 1.079 / m);
  double sum = 0;
  size_t zeros = 0;
  for (uint8_t r : registers) {
    sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  double estimate = alpha * m * m / sum;
  if (estimate <= 2.5 * m && zeros > 0) {
    // Linear-counting correction for the small-cardinality regime.
    estimate = m * std::log(m / static_cast<double>(zeros));
  }
  return estimate;
}

bool DistinctSketch::Equals(const DistinctSketch& other) const {
  return registers == other.registers;
}

// -- ShapeInfo --------------------------------------------------------------

void ShapeInfo::ObserveField(std::string_view key, std::string_view encoded) {
  auto it = field_values.find(key);
  if (it == field_values.end()) {
    if (field_values.size() >= kShapeFieldCap) {
      auto last = std::prev(field_values.end());
      fields_truncated = true;
      if (key > last->first) return;  // beyond the kept bottom-K of keys
      field_values.erase(last);
    }
    it = field_values.emplace(std::string(key), DistinctSample{}).first;
  }
  it->second.Observe(encoded);
}

void ShapeInfo::MergeFrom(const ShapeInfo& other) {
  count += other.count;
  fields_truncated = fields_truncated || other.fields_truncated;
  for (const auto& [key, sample] : other.field_values) {
    field_values[key].MergeFrom(sample);
  }
  while (field_values.size() > kShapeFieldCap) {
    field_values.erase(std::prev(field_values.end()));
    fields_truncated = true;
  }
}

bool ShapeInfo::Equals(const ShapeInfo& other) const {
  if (count != other.count || fields_truncated != other.fields_truncated ||
      field_values.size() != other.field_values.size()) {
    return false;
  }
  auto it = other.field_values.begin();
  for (const auto& [key, sample] : field_values) {
    if (key != it->first || !sample.Equals(it->second)) return false;
    ++it;
  }
  return true;
}

// -- Annotation -------------------------------------------------------------

void Annotation::ObserveScalar(std::string_view encoded) {
  sample.Observe(encoded);
  sketch.Observe(encoded);
}

void Annotation::ObserveNull(std::string* encoded) {
  ++count;
  ++null_count;
  *encoded = EncodeNull();
  ObserveScalar(*encoded);
}

void Annotation::ObserveBool(bool b, std::string* encoded) {
  ++count;
  ++bool_count;
  if (b) ++true_count;
  *encoded = EncodeBool(b);
  ObserveScalar(*encoded);
}

void Annotation::ObserveNum(double n, std::string* encoded) {
  ++count;
  ++num_count;
  num_range.Observe(n);
  EncodeNumInto(n, encoded);
  ObserveScalar(*encoded);
}

void Annotation::ObserveStr(std::string_view unescaped, std::string* encoded) {
  ++count;
  ++str_count;
  str_len.Observe(unescaped.size());
  EncodeStrInto(unescaped, encoded);
  ObserveScalar(*encoded);
}

void Annotation::ObserveRecordOpen() {
  ++count;
  ++record_count;
}

void Annotation::ObserveArray(uint64_t length) {
  ++count;
  ++array_count;
  array_len.Observe(length);
}

Annotation* Annotation::ObserveFieldEntry(std::string_view key) {
  auto it = fields.find(key);
  if (it == fields.end()) {
    it = fields.emplace(std::string(key), FieldInfo{}).first;
    it->second.node = std::make_unique<Annotation>();
  }
  ++it->second.present;
  return it->second.node.get();
}

Annotation* Annotation::ItemsEntry() {
  if (!items) items = std::make_unique<Annotation>();
  return items.get();
}

void Annotation::ObserveShape(std::string_view signature,
                              std::span<const ScalarField> scalar_fields) {
  auto it = shapes.find(signature);
  if (it == shapes.end()) {
    if (shapes.size() >= kShapeCap) {
      auto last = std::prev(shapes.end());
      shapes_truncated = true;
      if (signature > last->first) return;
      shapes.erase(last);
    }
    it = shapes.emplace(std::string(signature), ShapeInfo{}).first;
  }
  ShapeInfo& info = it->second;
  ++info.count;
  for (const ScalarField& f : scalar_fields) {
    info.ObserveField(f.key, f.encoded);
  }
}

void Annotation::MergeFrom(const Annotation& other) {
  count += other.count;
  null_count += other.null_count;
  bool_count += other.bool_count;
  true_count += other.true_count;
  num_count += other.num_count;
  str_count += other.str_count;
  record_count += other.record_count;
  array_count += other.array_count;
  num_range.MergeFrom(other.num_range);
  str_len.MergeFrom(other.str_len);
  array_len.MergeFrom(other.array_len);
  sample.MergeFrom(other.sample);
  sketch.MergeFrom(other.sketch);
  for (const auto& [key, info] : other.fields) {
    auto it = fields.find(key);
    if (it == fields.end()) it = fields.emplace(key, FieldInfo{}).first;
    it->second.present += info.present;
    if (info.node) {
      if (!it->second.node) it->second.node = std::make_unique<Annotation>();
      it->second.node->MergeFrom(*info.node);
    }
  }
  if (other.items) ItemsEntry()->MergeFrom(*other.items);
  shapes_truncated = shapes_truncated || other.shapes_truncated;
  for (const auto& [signature, info] : other.shapes) {
    shapes[signature].MergeFrom(info);
  }
  while (shapes.size() > kShapeCap) {
    shapes.erase(std::prev(shapes.end()));
    shapes_truncated = true;
  }
}

namespace {

bool NodePtrEquals(const Annotation* a, const Annotation* b) {
  if (a == b) return true;  // both absent (or literally the same node)
  static const Annotation kIdentity;
  return (a ? *a : kIdentity).Equals(b ? *b : kIdentity);
}

}  // namespace

bool Annotation::Equals(const Annotation& other) const {
  if (count != other.count || null_count != other.null_count ||
      bool_count != other.bool_count || true_count != other.true_count ||
      num_count != other.num_count || str_count != other.str_count ||
      record_count != other.record_count ||
      array_count != other.array_count) {
    return false;
  }
  if (!num_range.Equals(other.num_range) || !str_len.Equals(other.str_len) ||
      !array_len.Equals(other.array_len) || !sample.Equals(other.sample) ||
      !sketch.Equals(other.sketch)) {
    return false;
  }
  if (fields.size() != other.fields.size()) return false;
  {
    auto it = other.fields.begin();
    for (const auto& [key, info] : fields) {
      if (key != it->first || info.present != it->second.present ||
          !NodePtrEquals(info.node.get(), it->second.node.get())) {
        return false;
      }
      ++it;
    }
  }
  if (!NodePtrEquals(items.get(), other.items.get())) return false;
  if (shapes_truncated != other.shapes_truncated ||
      shapes.size() != other.shapes.size()) {
    return false;
  }
  auto it = other.shapes.begin();
  for (const auto& [signature, info] : shapes) {
    if (signature != it->first || !info.Equals(it->second)) return false;
    ++it;
  }
  return true;
}

Annotation Annotation::Clone() const {
  Annotation out;
  out.MergeFrom(*this);
  return out;
}

uint64_t Annotation::TreeNodes() const {
  uint64_t n = 1;
  for (const auto& [key, info] : fields) {
    if (info.node) n += info.node->TreeNodes();
  }
  if (items) n += items->TreeNodes();
  return n;
}

// -- DOM collection ---------------------------------------------------------

namespace {

// Folds `value` into `node`; for a scalar, returns true with its encoding
// left in `*encoded`.
bool ObserveInto(const Value& value, Annotation* node, std::string* encoded) {
  switch (value.kind()) {
    case ValueKind::kNull:
      node->ObserveNull(encoded);
      return true;
    case ValueKind::kBool:
      node->ObserveBool(value.bool_value(), encoded);
      return true;
    case ValueKind::kNum:
      node->ObserveNum(value.num_value(), encoded);
      return true;
    case ValueKind::kStr:
      node->ObserveStr(value.str_value(), encoded);
      return true;
    case ValueKind::kRecord: {
      node->ObserveRecordOpen();
      const std::vector<json::Field>& fields = value.fields();
      std::string signature;
      // Sized up front: the ScalarField views point into these strings.
      std::vector<std::string> encodings(fields.size());
      std::vector<ScalarField> scalars;
      for (size_t i = 0; i < fields.size(); ++i) {
        signature.append(fields[i].key);
        signature.push_back('\x1f');
        if (ObserveInto(*fields[i].value,
                        node->ObserveFieldEntry(fields[i].key),
                        &encodings[i])) {
          scalars.push_back(ScalarField{fields[i].key, encodings[i]});
        }
      }
      node->ObserveShape(signature, scalars);
      return false;
    }
    case ValueKind::kArray: {
      node->ObserveArray(value.elements().size());
      if (value.elements().empty()) return false;
      Annotation* child = node->ItemsEntry();
      for (const ValueRef& e : value.elements()) {
        ObserveInto(*e, child, encoded);
      }
      return false;
    }
  }
  return false;
}

}  // namespace

void ObserveValue(const Value& value, Annotation* node) {
  std::string encoded;
  ObserveInto(value, node, &encoded);
}

// -- Rendering --------------------------------------------------------------

namespace {

void AppendUnsignedRange(const char* label, const MinMaxU64& r,
                         std::vector<std::string>* parts) {
  if (!r.seen) return;
  parts->push_back(std::string(label) + " [" + std::to_string(r.min) + ".." +
                   std::to_string(r.max) + "]");
}

void AppendNode(const std::string& path, const Annotation& a,
                uint64_t present, uint64_t parent_records, std::string* out) {
  std::vector<std::string> parts;
  if (parent_records > 0) {
    parts.push_back("present " + std::to_string(present) + "/" +
                    std::to_string(parent_records));
  } else {
    parts.push_back("values " + std::to_string(a.count));
  }
  auto kind = [&](const char* name, uint64_t n) {
    if (n > 0) parts.push_back(std::string(name) + " " + std::to_string(n));
  };
  kind("null", a.null_count);
  kind("bool", a.bool_count);
  kind("num", a.num_count);
  kind("str", a.str_count);
  kind("record", a.record_count);
  kind("array", a.array_count);
  if (a.num_range.seen) {
    parts.push_back("num [" + EncodeNum(a.num_range.min).substr(1) + ".." +
                    EncodeNum(a.num_range.max).substr(1) + "]");
  }
  AppendUnsignedRange("strlen", a.str_len, &parts);
  AppendUnsignedRange("arraylen", a.array_len, &parts);
  if (a.sample.observations > 0) {
    std::string d = "distinct ";
    if (a.sample.complete()) {
      d += std::to_string(a.sample.values.size());
    } else {
      d += "~" + std::to_string(
                     static_cast<uint64_t>(a.sketch.Estimate() + 0.5));
    }
    if (!a.sample.values.empty()) {
      d += " {";
      for (size_t i = 0; i < a.sample.values.size(); ++i) {
        if (i) d += ", ";
        d += DecodeScalarDisplay(a.sample.values[i]);
      }
      if (a.sample.truncated) d += ", ...";
      d += "}";
    }
    parts.push_back(std::move(d));
  }
  if (!a.shapes.empty()) {
    parts.push_back("shapes " + std::to_string(a.shapes.size()) +
                    (a.shapes_truncated ? "+" : ""));
  }
  out->append(path.empty() ? "<root>" : path);
  out->append(": ");
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out->append(" | ");
    out->append(parts[i]);
  }
  out->push_back('\n');
  for (const auto& [key, info] : a.fields) {
    if (!info.node) continue;
    AppendNode(path.empty() ? key : path + "." + key, *info.node,
               info.present, a.record_count, out);
  }
  if (a.items) {
    AppendNode(path + "[]", *a.items, 0, 0, out);
  }
}

}  // namespace

std::string FormatAnnotation(const Annotation& root) {
  std::string out;
  AppendNode("", root, 0, 0, &out);
  return out;
}

}  // namespace jsonsi::annotate
