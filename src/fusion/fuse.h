// Type fusion — the Reduce phase (Section 5.2, Figures 5 and 6).
//
// `Fuse` is the binary operator at the heart of the paper: it merges two
// types into a compact common supertype. It is *correct* (both inputs are
// subtypes of the output, Theorem 5.2), *commutative* (Theorem 5.4) and
// *associative* (Theorem 5.5), which is what makes the distributed Reduce —
// and incremental schema maintenance — safe.
//
// Specification implemented (Figure 6):
//
//   Fuse(T1, T2)   = (+) over { LFuse(U1,U2) | (U1,U2) in KMatch(T1,T2) }
//                              u  KUnmatch(T1, T2)
//   LFuse(B, B)    = B                                (same basic kind)
//   LFuse(RT1,RT2) = field-wise merge: matching keys fused recursively with
//                    cardinality min(m,n) (so '?' prevails over '1');
//                    unmatched keys become optional
//   LFuse on arrays = [ Fuse(body1, body2) * ]  where body_i is the array's
//                    star body, or collapse(AT_i) for an exact array type
//   collapse([])   = eps
//   collapse([T,R])= Fuse(T, collapse(R))
//
// Deviation noted in DESIGN.md: matched record fields fuse with `Fuse`, not
// `LFuse` — field types may be union types after earlier fusions (e.g.
// `B: Num + Bool` in the paper's own Section 2 example), on which LFuse is
// undefined; the prose and the worked examples require the union-aware Fuse.
//
// All functions preserve the normal-type invariant: in every union of the
// result, each kind occurs at most once.
//
// -- Tunable array precision (the paper's future work) ----------------------
//
// Section 7 announces the intent to "improve the precision of the inference
// process for arrays and study the relationship between precision and
// efficiency". The `Fuser` class realizes that study: with
// `FuseOptions::max_tuple_length = L`, two exact array types of the SAME
// length n <= L fuse positionally into an exact array type (a tuple type),
// preserving element order and length; everything else falls back to the
// paper's starred simplification. L = 0 (the default, and what the free
// functions use) is exactly the paper's algorithm. The parameterized
// operator remains commutative and associative (property-tested).
//
// -- Hash-consed, memoized fusion (the hot-path optimization) ---------------
//
// Because Fuse is a pure function of its operands' structure, and real
// datasets repeat the same structural types millions of times, the default
// Fuser runs *memoized*: operands are canonicalized through the global
// TypeInterner (types/interner.h), the pair is looked up in the global
// FuseCache (fuse_cache.h, commutatively normalized), and only misses run
// the Figure 5/6 merge. Results are interned too, so equal schemas share
// nodes and later equality checks short-circuit on pointer identity. The
// optimization is *provably invisible*: outputs are structurally identical
// to the unoptimized path (differential suite in tests/interning_test.cc),
// and it is disabled wholesale by `types::SetInterningEnabled(false)`
// (`jsi --no-intern`) or per-instance via FuseOptions.
//
// Workers fuse concurrently against shared nodes, so the memoized path
// avoids writing to them (types/type.h):
//   * identical basic operands (one immortal singleton) answer
//     LFuse(B, B) = B before the interner and the memo;
//   * operands marked `Type::canonical()` are used by reference, not
//     re-interned: no shard lock, no reference-count round trip. The mark
//     means "was canonical once"; if the node has since been evicted, the
//     memo (keyed on node identity) may miss where the new representative
//     would hit, which costs time only, since Fuse is deterministic and its
//     result is still interned.

#ifndef JSONSI_FUSION_FUSE_H_
#define JSONSI_FUSION_FUSE_H_

#include <cstddef>
#include <vector>

#include "types/interner.h"
#include "types/type.h"

namespace jsonsi::fusion {

/// Knobs for the precision/efficiency study plus the memoization toggles.
struct FuseOptions {
  /// Exact arrays of equal length <= this fuse positionally (tuple types)
  /// instead of collapsing to a starred body. 0 = paper behaviour.
  size_t max_tuple_length = 0;
  /// Canonicalize operands/results through the global TypeInterner before
  /// and after fusing, so structurally equal types share one node.
  bool intern = true;
  /// Memoize Fuse(a, b) in the global FuseCache keyed on interned identity.
  bool memoize = true;
  /// TreeFuser-level dedup: coalesce structurally identical stream elements
  /// into (type, count) entries and fuse each distinct type once.
  bool dedup = true;
  /// Distinct types buffered by TreeFuser dedup before flushing into the
  /// balanced-tree slots (bounds memory on mostly-distinct streams).
  size_t dedup_max_pending = 4096;
};

/// A fusion operator instance. Holds no mutable state of its own (the
/// interner/memo it consults are process-global); cheap to copy. The
/// default-constructed Fuser implements the paper exactly, accelerated by
/// interning + memoization; both layers are identity-preserving and can be
/// switched off via options or globally (types::SetInterningEnabled).
class Fuser {
 public:
  explicit Fuser(const FuseOptions& options = {}) : options_(options) {}

  /// Fuses two (possibly union, possibly eps) normal types into their
  /// compact common supertype. Commutative and associative.
  types::TypeRef Fuse(const types::TypeRef& a, const types::TypeRef& b) const;

  /// Fuses two non-union types of the same kind() (Figure 6 lines 2-7).
  /// Precondition: a and b are non-union, non-empty, kind(a) == kind(b).
  types::TypeRef LFuse(const types::TypeRef& a, const types::TypeRef& b) const;

  /// Array-body simplification (Figure 6 lines 8-9): folds the element types
  /// of an exact array type with Fuse; the empty array type collapses to
  /// eps. Precondition: `exact_array` is an exact array type.
  types::TypeRef Collapse(const types::TypeRef& exact_array) const;

  /// Left fold over a list (eps for empty input).
  types::TypeRef FuseAll(const std::vector<types::TypeRef>& ts) const;

  const FuseOptions& options() const { return options_; }

  /// True when this instance currently interns/memoizes (its options say so
  /// AND the global switch is on).
  bool interning_active() const {
    return options_.intern && types::InterningEnabled();
  }
  bool memoization_active() const {
    return options_.memoize && types::InterningEnabled();
  }
  bool dedup_active() const {
    return options_.dedup && types::InterningEnabled();
  }

 private:
  /// The unmemoized Figure 5/6 merge (identity cases already handled).
  types::TypeRef FuseUncached(const types::TypeRef& a,
                              const types::TypeRef& b) const;

  FuseOptions options_;
};

// -- Paper-exact free functions (default options) ---------------------------

types::TypeRef Fuse(const types::TypeRef& a, const types::TypeRef& b);
types::TypeRef LFuse(const types::TypeRef& a, const types::TypeRef& b);
types::TypeRef Collapse(const types::TypeRef& exact_array);
types::TypeRef FuseAll(const std::vector<types::TypeRef>& ts);

}  // namespace jsonsi::fusion

#endif  // JSONSI_FUSION_FUSE_H_
