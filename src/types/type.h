// The JSON type (schema) language of Figure 3 of the paper.
//
//   T   ::= BT | RT | AT | SAT | eps | T + T        top-level types
//   BT  ::= Null | Bool | Num | Str                 basic types
//   RT  ::= {l1 : T1 [?], ..., ln : Tn [?]}         record types
//   AT  ::= [T1, ..., Tn]                           (exact) array types
//   SAT ::= [T*]                                    simplified array types
//
// plus the paper's kind() partition (Section 5.2):
//
//   kind(Null)=0  kind(Bool)=1  kind(Num)=2  kind(Str)=3
//   kind(RT)=4    kind(AT)=kind(SAT)=5
//
// Types are immutable, shared via TypeRef, and canonicalized at construction:
//   * record fields are sorted by key (records are sets of fields),
//   * union alternatives are flattened (no nested unions), stripped of eps,
//     and sorted by the total structural order `Compare`,
// so that structural equality is plain member-wise comparison, and the
// commutativity/associativity theorems of Section 5.2 become literal `==`
// checks on the canonical forms.
//
// "Normal types" (the invariant all paper algorithms maintain) additionally
// have at most one alternative per kind in every union, and use eps only as
// the body of a simplified array type; `IsNormal` checks this.
//
// Every node caches a structural hash and its AST size (the paper's type-size
// metric, Section 6.2) at construction, so distinct-type counting and the
// size statistics of Tables 2-5 are cheap at dataset scale.
//
// Nodes shared by concurrent workers must not be written on the hot path:
// every copy or drop of a TypeRef is an atomic read-modify-write on the
// node's control block, and when all workers hit the same node that one
// cache line serializes them. Two rules follow:
//   * Immortal singletons. Null, Bool, Num, Str and eps exist once per
//     process, in storage that is never freed, behind an aliasing TypeRef
//     with no control block: copying or dropping one touches no reference
//     count. Basic and eps nodes are never built any other way, so pointer
//     equality decides equality among them.
//   * The canonical flag. `canonical()` is a relaxed-atomic bit that an
//     interner (types/interner.h) sets when it makes a node resident; the
//     singletons are born with it. It means "was canonical once": eviction
//     does not clear it, so a stale flag only costs fusion-memo hits (the
//     memo keys on node identity), never correctness. Fusion uses flagged
//     operands as they are instead of re-interning them (fusion/fuse.h).

#ifndef JSONSI_TYPES_TYPE_H_
#define JSONSI_TYPES_TYPE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"

namespace jsonsi::types {

class Type;

/// Shared handle to an immutable type node.
using TypeRef = std::shared_ptr<const Type>;

/// The paper's kind() partition; defined for non-union, non-empty types.
enum class Kind : uint8_t {
  kNull = 0,
  kBool = 1,
  kNum = 2,
  kStr = 3,
  kRecord = 4,
  kArray = 5,  // covers both exact (AT) and simplified (SAT) array types
};

/// Concrete AST node shapes (finer than Kind: distinguishes AT from SAT and
/// includes the union and empty nodes).
enum class TypeNode : uint8_t {
  kNull,
  kBool,
  kNum,
  kStr,
  kRecord,
  kArrayExact,  // AT  = [T1, ..., Tn]
  kArrayStar,   // SAT = [T*]
  kUnion,       // T1 + ... + Tn (flattened, n >= 2)
  kEmpty,       // eps
};

/// One field of a record type: `key : type` or `key : type ?`.
struct FieldType {
  std::string key;
  TypeRef type;
  bool optional = false;
};

/// An immutable schema/type node.
class Type {
 public:
  // -- Factories (all results are canonical) ---------------------------------

  static TypeRef Null();
  static TypeRef Bool();
  static TypeRef Num();
  static TypeRef Str();
  /// The empty type eps (denotes no values; used as body of `[eps*]`).
  static TypeRef Empty();
  /// Basic type for a kind in {kNull..kStr}.
  static TypeRef Basic(Kind kind);

  /// Record type. Fields are sorted by key; duplicate keys are a checked
  /// error (record types inherit the well-formedness rule of records).
  static Result<TypeRef> Record(std::vector<FieldType> fields);
  /// Unchecked record factory for trusted call sites; asserts in debug.
  static TypeRef RecordUnchecked(std::vector<FieldType> fields);
  /// Fast path for producers whose fields are ALREADY key-sorted and unique
  /// (the fusion merge, inference over key-sorted values). Skips the sort —
  /// measurable at scale: fusing wide records (Wikidata's thousands of
  /// key-as-data fields) re-sorts the accumulator on every merge otherwise.
  /// Sortedness is asserted in debug builds.
  static TypeRef RecordFromSorted(std::vector<FieldType> fields);

  /// Exact array type [T1, ..., Tn] (produced by initial inference).
  static TypeRef ArrayExact(std::vector<TypeRef> elements);
  /// Simplified array type [T*] (produced by fusion/collapse).
  static TypeRef ArrayStar(TypeRef body);

  /// Union type, canonicalized: nested unions are flattened, eps alternatives
  /// dropped, alternatives sorted by Compare. Zero alternatives yield eps and
  /// one alternative yields that alternative itself, so the result is never a
  /// degenerate union node. Exact structural duplicates are collapsed
  /// (T + T = T); distinct same-kind alternatives are kept (the type is then
  /// non-normal, which IsNormal reports).
  static TypeRef Union(std::vector<TypeRef> alternatives);

  // -- Observers --------------------------------------------------------------

  TypeNode node() const { return node_; }
  bool is_basic() const { return node_ <= TypeNode::kStr; }
  bool is_record() const { return node_ == TypeNode::kRecord; }
  bool is_array_exact() const { return node_ == TypeNode::kArrayExact; }
  bool is_array_star() const { return node_ == TypeNode::kArrayStar; }
  bool is_array() const { return is_array_exact() || is_array_star(); }
  bool is_union() const { return node_ == TypeNode::kUnion; }
  bool is_empty() const { return node_ == TypeNode::kEmpty; }

  /// The paper's kind(). Requires a non-union, non-empty type.
  Kind kind() const;

  /// Requires is_record(). Key-sorted.
  const std::vector<FieldType>& fields() const { return fields_; }
  /// Requires is_array_exact().
  const std::vector<TypeRef>& elements() const { return children_; }
  /// Requires is_array_star().
  const TypeRef& body() const { return children_.front(); }
  /// Requires is_union(). Canonically sorted, size() >= 2.
  const std::vector<TypeRef>& alternatives() const { return children_; }

  /// Field lookup by key; nullptr when absent. Requires is_record().
  const FieldType* FindField(std::string_view key) const;

  /// Structural hash, cached. Equal types hash equally.
  uint64_t hash() const { return hash_; }

  /// AST size, the paper's succinctness metric (Tables 2-5). Counting rule:
  /// every type node is 1; each record field adds 1 (the field node) plus the
  /// size of its type (the `?` marker is free); exact arrays and unions add
  /// the sizes of their members; a star adds 1 plus its body.
  size_t size() const { return size_; }

  /// Maximum nesting depth: basic/eps = 1; records/arrays = 1 + max child.
  size_t Depth() const;

  /// Deep structural equality on canonical forms.
  bool Equals(const Type& other) const;

  /// Whether an interner has ever made this node its resident
  /// representative (always true for the singletons). See the file comment.
  bool canonical() const {
    return canonical_.load(std::memory_order_relaxed);
  }

 private:
  friend class TypeInterner;  // the only writer of canonical_

  Type() = default;

  /// Builds the immortal singleton of a basic or eps node shape.
  static TypeRef Singleton(TypeNode node);

  void MarkCanonical() const {
    canonical_.store(true, std::memory_order_relaxed);
  }

  TypeNode node_ = TypeNode::kNull;
  mutable std::atomic<bool> canonical_{false};  // fits node_'s padding
  std::vector<FieldType> fields_;   // kRecord
  std::vector<TypeRef> children_;   // kArrayExact elements / kArrayStar body /
                                    // kUnion alternatives
  uint64_t hash_ = 0;
  size_t size_ = 1;
};

/// Total structural order on types; canonical and deterministic. Orders by
/// node shape first (Null < Bool < Num < Str < Record < ArrayExact <
/// ArrayStar < Union < Empty), then structurally. Returns <0, 0, >0.
int Compare(const Type& a, const Type& b);

/// Deep equality through refs (null-safe).
bool TypeEquals(const TypeRef& a, const TypeRef& b);

/// Whether `t` satisfies the normal-type invariant of Section 5.2: every
/// union has at most one alternative per kind (and no nested unions or eps —
/// guaranteed by construction), and eps occurs only as a star body.
bool IsNormal(const Type& t);
inline bool IsNormal(const TypeRef& t) { return IsNormal(*t); }

/// o(T) of Figure 5: flattens a type into its list of non-union addends
/// (eps -> empty list). Canonical order is preserved.
std::vector<TypeRef> Flatten(const TypeRef& t);

/// Hash/equality functors for unordered containers keyed on TypeRef.
struct TypeRefHash {
  size_t operator()(const TypeRef& t) const {
    return static_cast<size_t>(t->hash());
  }
};
struct TypeRefEq {
  bool operator()(const TypeRef& a, const TypeRef& b) const {
    return TypeEquals(a, b);
  }
};

}  // namespace jsonsi::types

#endif  // JSONSI_TYPES_TYPE_H_
