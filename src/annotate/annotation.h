// The Annotation monoid lattice — value statistics carried alongside types.
//
// The paper's Fuse operator is a commutative-monoid fold over per-record
// types (Theorems 5.4/5.5 are exactly the associativity/commutativity the
// parallel tree-reduce needs). JSONoid (PAPERS.md) observes that the same
// fold can carry *any* commutative monoid beside the type: per-position
// record counts, null counts, numeric min/max, string-length bounds,
// distinct-value samples, cardinality sketches. This module is that lattice.
//
// An Annotation is a tree shaped like the schema (a field map plus one
// array-items child per position), NOT like any one record — the annotation
// of a dataset is the monoid fold of its records' annotations. Every
// component is an associative + commutative merge with an identity (the
// default-constructed node), so
//
//     serial fold == chunked fold == parallel tree-reduce fold
//
// holds *exactly*, not approximately — the same discipline as the SIMD and
// chunk parity suites, asserted by tests/annotation_pipeline_test.cc.
// The bounded components are designed so truncation cannot break this:
//
//   * DistinctSample keeps the K lexicographically smallest encoded values.
//     bottomK(A ∪ B) depends only on (bottomK(A), bottomK(B)), so the kept
//     set is a pure function of the underlying value set regardless of
//     merge order; the `truncated` flag is exact (distinct > K, or a value
//     was too large to sample) and also order-independent.
//   * The shape map and per-shape sample maps are bounded the same way
//     (bottom-K by key). A key that survives the merged bound provably has
//     its exact merged statistics: if fewer than K keys precede it in the
//     union, fewer than K precede it on each side, so neither side evicted
//     it.
//   * The HLL-style sketch merges by register-wise max; min/max ranges and
//     counters merge by min/max/addition.
//
// Annotations live OUTSIDE the interned Type nodes on purpose: two
// structurally equal types hash-cons to one node, so statistics cannot be
// stored per node without conflating positions. Keying the annotation tree
// by schema position instead means interning and fusion memoization can
// never lose or double-count an observation — the accumulators merge even
// when every type involved is pointer-identical (asserted with interning
// and memoization on/off in tests/annotation_test.cc).
//
// Collection is opt-in (`--annotate`, InferenceOptions::annotate) so the
// DOM-free hot path keeps its PR-5/PR-8 throughput by default.

#ifndef JSONSI_ANNOTATE_ANNOTATION_H_
#define JSONSI_ANNOTATE_ANNOTATION_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "json/value.h"

namespace jsonsi::annotate {

/// Bounded-sample knobs. Small on purpose: the samples exist to drive
/// tagged-union refinement (discriminator fields have a handful of values)
/// and enum export, not to be a column store.
inline constexpr size_t kDistinctSampleCap = 16;
/// Encoded scalar values longer than this are counted but not sampled (the
/// sample is marked truncated). The predicate depends only on the value, so
/// truncation stays order-independent.
inline constexpr size_t kMaxSampledScalarBytes = 64;
/// Bounds on the per-record-position shape map (distinct key-set
/// signatures) and the per-shape scalar-field sample maps.
inline constexpr size_t kShapeCap = 64;
inline constexpr size_t kShapeFieldCap = 32;
/// HLL register count (precision p = 8, standard error ~6.5%).
inline constexpr size_t kSketchRegisters = 256;

// -- Scalar encodings -------------------------------------------------------
//
// Sampled scalar values are stored as tag-prefixed strings so one ordered
// container holds mixed kinds deterministically:
//   "z" null · "b0"/"b1" bool · "n<shortest-round-trip double>" number ·
//   "s<unescaped bytes>" string.
// Both the DOM parser and the direct tokenizer produce doubles through the
// same std::from_chars scan, so the two paths encode identically.

std::string EncodeNull();
std::string EncodeBool(bool b);
std::string EncodeNum(double n);
std::string EncodeStr(std::string_view unescaped);
/// Human-readable rendering of an encoded scalar ("null", "true", "42",
/// "\"id\"").
std::string DecodeScalarDisplay(const std::string& encoded);
/// The encoded scalar as a JSON value (for `const`/`enum` export).
json::ValueRef DecodeScalarValue(const std::string& encoded);

// -- Component monoids ------------------------------------------------------

/// Min/max over doubles. Identity: `seen == false`.
struct MinMax {
  bool seen = false;
  double min = 0;
  double max = 0;

  void Observe(double v);
  void MergeFrom(const MinMax& other);
  bool Equals(const MinMax& other) const;
};

/// Min/max over unsigned lengths. Identity: `seen == false`.
struct MinMaxU64 {
  bool seen = false;
  uint64_t min = 0;
  uint64_t max = 0;

  void Observe(uint64_t v);
  void MergeFrom(const MinMaxU64& other);
  bool Equals(const MinMaxU64& other) const;
};

/// Bottom-K distinct-value sample with an exact truncation flag.
struct DistinctSample {
  /// Sorted, deduplicated encoded values — the K smallest ever observed.
  std::vector<std::string> values;
  /// True iff the sample is incomplete: more than K distinct values exist,
  /// or some value was too large to sample. Exact and order-independent.
  bool truncated = false;
  /// Number of scalar observations feeding this sample (not distinct).
  uint64_t observations = 0;

  /// True when `values` is the complete distinct-value set.
  bool complete() const { return !truncated; }

  void Observe(std::string_view encoded);
  void MergeFrom(const DistinctSample& other);
  bool Equals(const DistinctSample& other) const;
};

/// HLL-style cardinality sketch: 256 registers of leading-zero ranks,
/// merged by register-wise max (exactly order-independent).
struct DistinctSketch {
  std::array<uint8_t, kSketchRegisters> registers{};

  void Observe(std::string_view encoded);
  void MergeFrom(const DistinctSketch& other);
  /// Standard HLL estimate with the small-range (linear counting)
  /// correction. A derived quantity — equality compares registers.
  double Estimate() const;
  bool Equals(const DistinctSketch& other) const;
};

/// One scalar field of a record instance: its key and encoded value, the
/// shape evidence for discriminator detection. Views into caller storage.
struct ScalarField {
  std::string_view key;
  std::string_view encoded;
};

/// Per-shape statistics: how many records had exactly this key set, and a
/// bounded map of scalar-field samples used for discriminator detection.
struct ShapeInfo {
  uint64_t count = 0;
  /// key -> distinct sample of the scalar values that key held in records
  /// of this shape. Bounded to the kShapeFieldCap smallest keys.
  std::map<std::string, DistinctSample, std::less<>> field_values;
  bool fields_truncated = false;

  void ObserveField(std::string_view key, std::string_view encoded);
  void MergeFrom(const ShapeInfo& other);
  bool Equals(const ShapeInfo& other) const;
};

// -- The annotation node ----------------------------------------------------

/// One schema position's accumulated statistics plus its children. The
/// default-constructed node is the monoid identity.
class Annotation {
 public:
  /// A record field's accumulator plus its presence count (how many parent
  /// records carried the key — the denominator for optionality ratios).
  struct FieldInfo {
    uint64_t present = 0;
    std::unique_ptr<Annotation> node;
  };

  Annotation() = default;
  Annotation(Annotation&&) = default;
  Annotation& operator=(Annotation&&) = default;

  // -- Per-record observation (one value at this position) --
  //
  // Observing a value is merging its singleton annotation, so a collector
  // folds records straight into a shared accumulator. Each scalar observer
  // leaves the value's encoding (Encode*) in the caller's `*encoded`
  // buffer, which the enclosing record passes on to ObserveShape: one
  // encoding per value.
  void ObserveNull(std::string* encoded);
  void ObserveBool(bool b, std::string* encoded);
  void ObserveNum(double n, std::string* encoded);
  /// `unescaped` is the decoded string payload; its length feeds the
  /// string-length bounds.
  void ObserveStr(std::string_view unescaped, std::string* encoded);
  void ObserveRecordOpen();
  void ObserveArray(uint64_t length);
  /// Returns the accumulator for field `key`, creating it on first use and
  /// bumping its presence count.
  Annotation* ObserveFieldEntry(std::string_view key);
  /// Returns the shared accumulator for array elements at this position.
  Annotation* ItemsEntry();
  /// Registers one record instance's key-set signature (its sorted keys,
  /// each followed by '\x1f') and its scalar fields' encoded values.
  void ObserveShape(std::string_view signature,
                    std::span<const ScalarField> scalar_fields);

  // -- Monoid operations --
  void MergeFrom(const Annotation& other);
  bool Equals(const Annotation& other) const;
  /// Deep copy (Annotation is move-only; copying is explicit).
  Annotation Clone() const;
  /// Nodes in this annotation tree (this node included).
  uint64_t TreeNodes() const;

  // -- Accumulated state (public: this is a data carrier) --
  uint64_t count = 0;  // values observed at this position
  uint64_t null_count = 0;
  uint64_t bool_count = 0;
  uint64_t true_count = 0;
  uint64_t num_count = 0;
  uint64_t str_count = 0;
  uint64_t record_count = 0;
  uint64_t array_count = 0;
  MinMax num_range;
  MinMaxU64 str_len;
  MinMaxU64 array_len;
  /// Distinct sample + sketch over the *scalar* values at this position.
  DistinctSample sample;
  DistinctSketch sketch;
  /// Record children, keyed by field name.
  std::map<std::string, FieldInfo, std::less<>> fields;
  /// Array element child (all elements pool into one position).
  std::unique_ptr<Annotation> items;
  /// Key-set signature -> per-shape statistics, bounded to the kShapeCap
  /// smallest signatures.
  std::map<std::string, ShapeInfo, std::less<>> shapes;
  bool shapes_truncated = false;

 private:
  void ObserveScalar(std::string_view encoded);
};

/// DOM-walk collection: folds `value`'s annotation into `node`. The exact
/// counterpart of the tokenizer-driven collection in DirectInferType —
/// differential-tested for equality on both paths.
void ObserveValue(const json::Value& value, Annotation* node);

/// Multi-line human-readable digest ("path: count, kinds, ranges, sample"),
/// deterministic.
std::string FormatAnnotation(const Annotation& root);

}  // namespace jsonsi::annotate

#endif  // JSONSI_ANNOTATE_ANNOTATION_H_
