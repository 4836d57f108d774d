#include "fusion/fuse.h"

#include <array>
#include <cassert>

#include "fusion/fuse_cache.h"
#include "telemetry/telemetry.h"
#include "types/interner.h"

namespace jsonsi::fusion {

using types::FieldType;
using types::Kind;
using types::Type;
using types::TypeRef;

namespace {

// Buckets the non-union addends of a flattened type by kind, normalizing
// defensively: should two addends of one kind ever appear (a non-normal
// input), they are LFused together, so Fuse is total and always yields a
// normal result.
std::array<TypeRef, 6> BucketByKind(const Fuser& fuser, const TypeRef& t) {
  std::array<TypeRef, 6> buckets{};
  for (const TypeRef& addend : types::Flatten(t)) {
    TypeRef& slot = buckets[static_cast<size_t>(addend->kind())];
    slot = slot ? fuser.LFuse(slot, addend) : addend;
  }
  return buckets;
}

TypeRef FuseRecords(const Fuser& fuser, const TypeRef& a, const TypeRef& b) {
  const auto& fa = a->fields();
  const auto& fb = b->fields();
  std::vector<FieldType> out;
  out.reserve(fa.size() + fb.size());
  // Both field vectors are key-sorted: a single linear merge implements
  // FMatch/FUnmatch of Figure 5.
  size_t i = 0;
  size_t j = 0;
  while (i < fa.size() && j < fb.size()) {
    int cmp = fa[i].key.compare(fb[j].key);
    if (cmp == 0) {
      // Matching keys: fuse the field types; min(m,n) with ? < 1 means the
      // field stays mandatory only when mandatory on both sides.
      out.push_back({fa[i].key, fuser.Fuse(fa[i].type, fb[j].type),
                     fa[i].optional || fb[j].optional});
      ++i;
      ++j;
    } else if (cmp < 0) {
      out.push_back({fa[i].key, fa[i].type, /*optional=*/true});
      ++i;
    } else {
      out.push_back({fb[j].key, fb[j].type, /*optional=*/true});
      ++j;
    }
  }
  for (; i < fa.size(); ++i) out.push_back({fa[i].key, fa[i].type, true});
  for (; j < fb.size(); ++j) out.push_back({fb[j].key, fb[j].type, true});
  // The merge of two key-sorted field lists is key-sorted and unique.
  return Type::RecordFromSorted(std::move(out));
}

TypeRef FuseArrays(const Fuser& fuser, const TypeRef& a, const TypeRef& b) {
  // Tuple mode (future-work extension): equal-length short exact arrays
  // fuse positionally, preserving order and length.
  // (Gated on max_tuple_length > 0 so the default operator reproduces the
  // paper exactly, including [] (+) [] = [(Empty)*].)
  if (fuser.options().max_tuple_length > 0 && a->is_array_exact() &&
      b->is_array_exact() &&
      a->elements().size() == b->elements().size() &&
      a->elements().size() <= fuser.options().max_tuple_length) {
    std::vector<TypeRef> elements;
    elements.reserve(a->elements().size());
    for (size_t i = 0; i < a->elements().size(); ++i) {
      elements.push_back(fuser.Fuse(a->elements()[i], b->elements()[i]));
    }
    return Type::ArrayExact(std::move(elements));
  }
  // Paper behaviour (Figure 6 lines 4-7): star of the fused bodies, where
  // the body of an exact array is its collapse.
  auto star_body = [&fuser](const TypeRef& t) {
    return t->is_array_star() ? t->body() : fuser.Collapse(t);
  };
  return Type::ArrayStar(fuser.Fuse(star_body(a), star_body(b)));
}

}  // namespace

TypeRef Fuser::Collapse(const TypeRef& exact_array) const {
  assert(exact_array->is_array_exact());
  JSONSI_COUNTER("fuse.collapse_calls").Increment();
  TypeRef acc = Type::Empty();  // collapse(EArrT) = eps
  for (const TypeRef& element : exact_array->elements()) {
    acc = Fuse(acc, element);
  }
  return acc;
}

TypeRef Fuser::LFuse(const TypeRef& a, const TypeRef& b) const {
  assert(!a->is_union() && !a->is_empty());
  assert(!b->is_union() && !b->is_empty());
  assert(a->kind() == b->kind());
  JSONSI_COUNTER("fuse.lfuse_calls").Increment();
  switch (a->kind()) {
    case Kind::kNull:
    case Kind::kBool:
    case Kind::kNum:
    case Kind::kStr:
      return a;  // LFuse(B, B) = B
    case Kind::kRecord:
      return FuseRecords(*this, a, b);
    case Kind::kArray:
      return FuseArrays(*this, a, b);
  }
  return a;
}

TypeRef Fuser::Fuse(const TypeRef& a, const TypeRef& b) const {
  // The identity cases skip the bucket/merge machinery entirely: fusing with
  // eps returns the other operand unchanged (sharing its node, the memo-like
  // fast path the telemetry counter below makes visible).
  if (a->is_empty() || b->is_empty()) {
    JSONSI_COUNTER("fuse.identity_hits").Increment();
    return a->is_empty() ? b : a;
  }

  if (!interning_active() && !memoization_active()) {
    return FuseUncached(a, b);
  }
  // LFuse(B, B) = B. Basic nodes are immortal singletons, so identical basic
  // operands are one pointer: answered before the interner and the memo.
  if (a.get() == b.get() && a->is_basic()) return a;

  // Memoized path: canonicalize operands to their interned representatives
  // (structurally equal, possibly the same node), then consult the memo
  // keyed on node identity. Operands already marked canonical (typed with
  // interning on, or earlier fusion results) are used by reference, so
  // neither the shard locks nor their reference counts are touched. Both
  // layers preserve structural equality, so this branch is invisible apart
  // from speed (differential-tested).
  TypeRef interned[2];
  const TypeRef* ai = &a;
  const TypeRef* bi = &b;
  if (interning_active()) {
    types::TypeInterner& interner = types::TypeInterner::Global();
    if (!a->canonical()) ai = &(interned[0] = interner.Intern(a));
    if (!b->canonical()) bi = &(interned[1] = interner.Intern(b));
  }
  const uint64_t tag = static_cast<uint64_t>(options_.max_tuple_length);
  if (memoization_active()) {
    if (TypeRef hit = FuseCache::Global().Lookup(*ai, *bi, tag)) return hit;
  }
  TypeRef result = FuseUncached(*ai, *bi);
  if (interning_active() && !result->canonical()) {
    result = types::TypeInterner::Global().Intern(std::move(result));
  }
  if (memoization_active()) {
    FuseCache::Global().Insert(*ai, *bi, tag, result);
  }
  return result;
}

TypeRef Fuser::FuseUncached(const TypeRef& a, const TypeRef& b) const {
  std::array<TypeRef, 6> ba = BucketByKind(*this, a);
  std::array<TypeRef, 6> bb = BucketByKind(*this, b);
  std::vector<TypeRef> out;
  out.reserve(6);
  for (size_t k = 0; k < 6; ++k) {
    if (ba[k] && bb[k]) {
      out.push_back(LFuse(ba[k], bb[k]));  // KMatch pair
    } else if (ba[k]) {
      out.push_back(ba[k]);  // KUnmatch passthrough
    } else if (bb[k]) {
      out.push_back(bb[k]);
    }
  }
  // Union() canonicalizes: 0 addends -> eps, 1 -> the addend itself.
  TypeRef result = Type::Union(std::move(out));
  if (telemetry::Enabled()) {
    JSONSI_COUNTER("fuse.calls").Increment();
    JSONSI_HISTOGRAM("fuse.result_size").Record(result->size());
    // Compaction per pair: how much smaller the supertype is than its inputs
    // combined — the quantity behind the paper's fused/avg ratios.
    size_t inputs = a->size() + b->size();
    JSONSI_HISTOGRAM("fuse.size_delta")
        .Record(inputs > result->size() ? inputs - result->size() : 0);
  }
  return result;
}

TypeRef Fuser::FuseAll(const std::vector<TypeRef>& ts) const {
  TypeRef acc = Type::Empty();
  for (const TypeRef& t : ts) acc = Fuse(acc, t);
  return acc;
}

// -- Free functions: the paper-exact default instance -----------------------

namespace {
const Fuser& DefaultFuser() {
  static const Fuser instance{};
  return instance;
}
}  // namespace

TypeRef Fuse(const TypeRef& a, const TypeRef& b) {
  return DefaultFuser().Fuse(a, b);
}

TypeRef LFuse(const TypeRef& a, const TypeRef& b) {
  return DefaultFuser().LFuse(a, b);
}

TypeRef Collapse(const TypeRef& exact_array) {
  return DefaultFuser().Collapse(exact_array);
}

TypeRef FuseAll(const std::vector<TypeRef>& ts) {
  return DefaultFuser().FuseAll(ts);
}

}  // namespace jsonsi::fusion
