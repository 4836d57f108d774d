#include "types/type.h"

#include <algorithm>
#include <cassert>

#include "support/hash.h"

namespace jsonsi::types {
namespace {

constexpr uint64_t kNodeSeed[] = {
    0x428a2f98d728ae22ULL,  // kNull
    0x7137449123ef65cdULL,  // kBool
    0xb5c0fbcfec4d3b2fULL,  // kNum
    0xe9b5dba58189dbbcULL,  // kStr
    0x3956c25bf348b538ULL,  // kRecord
    0x59f111f1b605d019ULL,  // kArrayExact
    0x923f82a4af194f9bULL,  // kArrayStar
    0xab1c5ed5da6d8118ULL,  // kUnion
    0xd807aa98a3030242ULL,  // kEmpty
};

uint64_t SeedFor(TypeNode node) { return kNodeSeed[static_cast<size_t>(node)]; }

}  // namespace

// All factories are static members of Type, so they may construct nodes and
// fill the private state directly; no other code can.

TypeRef Type::Singleton(TypeNode node) {
  // Never freed: the node lives for the whole process, and the aliasing
  // TypeRef has no control block, so copies never touch a reference count.
  Type* n = new Type();
  n->node_ = node;
  n->hash_ = SeedFor(node);
  n->canonical_.store(true, std::memory_order_relaxed);
  return TypeRef(TypeRef(), n);
}

TypeRef Type::Null() {
  static const TypeRef t = Singleton(TypeNode::kNull);
  return t;
}

TypeRef Type::Bool() {
  static const TypeRef t = Singleton(TypeNode::kBool);
  return t;
}

TypeRef Type::Num() {
  static const TypeRef t = Singleton(TypeNode::kNum);
  return t;
}

TypeRef Type::Str() {
  static const TypeRef t = Singleton(TypeNode::kStr);
  return t;
}

TypeRef Type::Empty() {
  static const TypeRef t = Singleton(TypeNode::kEmpty);
  return t;
}

TypeRef Type::Basic(Kind kind) {
  switch (kind) {
    case Kind::kNull:
      return Null();
    case Kind::kBool:
      return Bool();
    case Kind::kNum:
      return Num();
    case Kind::kStr:
      return Str();
    default:
      assert(false && "Basic() requires a basic kind");
      return Null();
  }
}

Result<TypeRef> Type::Record(std::vector<FieldType> fields) {
  std::sort(fields.begin(), fields.end(),
            [](const FieldType& a, const FieldType& b) {
              return a.key < b.key;
            });
  for (size_t i = 1; i < fields.size(); ++i) {
    if (fields[i - 1].key == fields[i].key) {
      return Status::InvalidArgument("duplicate record-type key: \"" +
                                     fields[i].key + "\"");
    }
  }
  return RecordUnchecked(std::move(fields));
}

TypeRef Type::RecordUnchecked(std::vector<FieldType> fields) {
  std::sort(fields.begin(), fields.end(),
            [](const FieldType& a, const FieldType& b) {
              return a.key < b.key;
            });
  return RecordFromSorted(std::move(fields));
}

TypeRef Type::RecordFromSorted(std::vector<FieldType> fields) {
#ifndef NDEBUG
  for (size_t i = 1; i < fields.size(); ++i) {
    assert(fields[i - 1].key < fields[i].key &&
           "fields must be key-sorted and unique");
  }
#endif
  auto n = std::shared_ptr<Type>(new Type());
  n->node_ = TypeNode::kRecord;
  uint64_t h = SeedFor(TypeNode::kRecord);
  size_t size = 1;
  for (const FieldType& f : fields) {
    h = HashCombine(h, HashBytes(f.key));
    h = HashCombine(h, f.type->hash());
    h = HashCombine(h, f.optional ? 0x3b9aca07ULL : 0x2545f491ULL);
    size += 1 + f.type->size();
  }
  n->hash_ = h;
  n->size_ = size;
  n->fields_ = std::move(fields);
  return n;
}

TypeRef Type::ArrayExact(std::vector<TypeRef> elements) {
  auto n = std::shared_ptr<Type>(new Type());
  n->node_ = TypeNode::kArrayExact;
  uint64_t h = SeedFor(TypeNode::kArrayExact);
  size_t size = 1;
  for (const TypeRef& e : elements) {
    h = HashCombine(h, e->hash());
    size += e->size();
  }
  n->hash_ = h;
  n->size_ = size;
  n->children_ = std::move(elements);
  return n;
}

TypeRef Type::ArrayStar(TypeRef body) {
  auto n = std::shared_ptr<Type>(new Type());
  n->node_ = TypeNode::kArrayStar;
  n->hash_ = HashCombine(SeedFor(TypeNode::kArrayStar), body->hash());
  n->size_ = 1 + body->size();
  n->children_.push_back(std::move(body));
  return n;
}

TypeRef Type::Union(std::vector<TypeRef> alternatives) {
  // Flatten nested unions and drop eps (o() semantics of Figure 5).
  std::vector<TypeRef> flat;
  flat.reserve(alternatives.size());
  for (TypeRef& alt : alternatives) {
    assert(alt != nullptr);
    if (alt->is_empty()) continue;
    if (alt->is_union()) {
      // Alternatives of a union node are already flat and canonical.
      for (const TypeRef& sub : alt->alternatives()) flat.push_back(sub);
    } else {
      flat.push_back(std::move(alt));
    }
  }
  std::sort(flat.begin(), flat.end(), [](const TypeRef& a, const TypeRef& b) {
    return Compare(*a, *b) < 0;
  });
  // Collapse exact duplicates: T + T = T (sound; keeps canonical forms small
  // even for hand-built non-normal unions).
  flat.erase(std::unique(flat.begin(), flat.end(),
                         [](const TypeRef& a, const TypeRef& b) {
                           return TypeEquals(a, b);
                         }),
             flat.end());
  if (flat.empty()) return Empty();
  if (flat.size() == 1) return flat.front();
  auto n = std::shared_ptr<Type>(new Type());
  n->node_ = TypeNode::kUnion;
  uint64_t h = SeedFor(TypeNode::kUnion);
  size_t size = 1;
  for (const TypeRef& alt : flat) {
    h = HashCombine(h, alt->hash());
    size += alt->size();
  }
  n->hash_ = h;
  n->size_ = size;
  n->children_ = std::move(flat);
  return n;
}

Kind Type::kind() const {
  switch (node_) {
    case TypeNode::kNull:
      return Kind::kNull;
    case TypeNode::kBool:
      return Kind::kBool;
    case TypeNode::kNum:
      return Kind::kNum;
    case TypeNode::kStr:
      return Kind::kStr;
    case TypeNode::kRecord:
      return Kind::kRecord;
    case TypeNode::kArrayExact:
    case TypeNode::kArrayStar:
      return Kind::kArray;
    case TypeNode::kUnion:
    case TypeNode::kEmpty:
      break;
  }
  assert(false && "kind() is undefined for union/empty types");
  return Kind::kNull;
}

const FieldType* Type::FindField(std::string_view key) const {
  assert(is_record());
  auto it = std::lower_bound(
      fields_.begin(), fields_.end(), key,
      [](const FieldType& f, std::string_view k) { return f.key < k; });
  if (it != fields_.end() && it->key == key) return &*it;
  return nullptr;
}

size_t Type::Depth() const {
  switch (node_) {
    case TypeNode::kNull:
    case TypeNode::kBool:
    case TypeNode::kNum:
    case TypeNode::kStr:
    case TypeNode::kEmpty:
      return 1;
    case TypeNode::kRecord: {
      size_t d = 0;
      for (const FieldType& f : fields_) d = std::max(d, f.type->Depth());
      return 1 + d;
    }
    case TypeNode::kArrayExact:
    case TypeNode::kArrayStar: {
      size_t d = 0;
      for (const TypeRef& c : children_) d = std::max(d, c->Depth());
      return 1 + d;
    }
    case TypeNode::kUnion: {
      // A union is not a structural level: its depth is its deepest addend.
      size_t d = 0;
      for (const TypeRef& c : children_) d = std::max(d, c->Depth());
      return d;
    }
  }
  return 1;
}

bool Type::Equals(const Type& other) const {
  if (this == &other) return true;
  if (node_ != other.node_ || hash_ != other.hash_ || size_ != other.size_) {
    return false;
  }
  switch (node_) {
    case TypeNode::kNull:
    case TypeNode::kBool:
    case TypeNode::kNum:
    case TypeNode::kStr:
    case TypeNode::kEmpty:
      return true;
    case TypeNode::kRecord: {
      if (fields_.size() != other.fields_.size()) return false;
      for (size_t i = 0; i < fields_.size(); ++i) {
        const FieldType& a = fields_[i];
        const FieldType& b = other.fields_[i];
        if (a.optional != b.optional || a.key != b.key) return false;
        if (!a.type->Equals(*b.type)) return false;
      }
      return true;
    }
    case TypeNode::kArrayExact:
    case TypeNode::kArrayStar:
    case TypeNode::kUnion: {
      if (children_.size() != other.children_.size()) return false;
      for (size_t i = 0; i < children_.size(); ++i) {
        if (!children_[i]->Equals(*other.children_[i])) return false;
      }
      return true;
    }
  }
  return false;
}

int Compare(const Type& a, const Type& b) {
  if (&a == &b) return 0;
  if (a.node() != b.node()) {
    return static_cast<int>(a.node()) < static_cast<int>(b.node()) ? -1 : 1;
  }
  switch (a.node()) {
    case TypeNode::kNull:
    case TypeNode::kBool:
    case TypeNode::kNum:
    case TypeNode::kStr:
    case TypeNode::kEmpty:
      return 0;
    case TypeNode::kRecord: {
      const auto& fa = a.fields();
      const auto& fb = b.fields();
      if (fa.size() != fb.size()) return fa.size() < fb.size() ? -1 : 1;
      for (size_t i = 0; i < fa.size(); ++i) {
        if (int c = fa[i].key.compare(fb[i].key); c != 0) return c < 0 ? -1 : 1;
        if (fa[i].optional != fb[i].optional) return fa[i].optional ? 1 : -1;
        if (int c = Compare(*fa[i].type, *fb[i].type); c != 0) return c;
      }
      return 0;
    }
    case TypeNode::kArrayExact:
    case TypeNode::kArrayStar:
    case TypeNode::kUnion: {
      // children_ holds elements / body / alternatives respectively; all
      // three compare element-wise.
      const Type* nodes[2] = {&a, &b};
      const std::vector<TypeRef>* cs[2];
      for (int i = 0; i < 2; ++i) {
        const Type& t = *nodes[i];
        cs[i] = t.is_array_exact()
                    ? &t.elements()
                    : (t.is_union() ? &t.alternatives() : nullptr);
      }
      if (a.is_array_star()) {
        return Compare(*a.body(), *b.body());
      }
      const auto& ca = *cs[0];
      const auto& cb = *cs[1];
      if (ca.size() != cb.size()) return ca.size() < cb.size() ? -1 : 1;
      for (size_t i = 0; i < ca.size(); ++i) {
        if (int c = Compare(*ca[i], *cb[i]); c != 0) return c;
      }
      return 0;
    }
  }
  return 0;
}

bool TypeEquals(const TypeRef& a, const TypeRef& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  return a->Equals(*b);
}

namespace {

bool IsNormalImpl(const Type& t, bool star_body) {
  switch (t.node()) {
    case TypeNode::kNull:
    case TypeNode::kBool:
    case TypeNode::kNum:
    case TypeNode::kStr:
      return true;
    case TypeNode::kEmpty:
      // eps is legal only directly under a star ([eps*], the simplified form
      // of the empty array type).
      return star_body;
    case TypeNode::kRecord:
      for (const FieldType& f : t.fields()) {
        if (!IsNormalImpl(*f.type, /*star_body=*/false)) return false;
      }
      return true;
    case TypeNode::kArrayExact:
      for (const TypeRef& e : t.elements()) {
        if (!IsNormalImpl(*e, /*star_body=*/false)) return false;
      }
      return true;
    case TypeNode::kArrayStar:
      return IsNormalImpl(*t.body(), /*star_body=*/true);
    case TypeNode::kUnion: {
      bool seen[6] = {false, false, false, false, false, false};
      for (const TypeRef& alt : t.alternatives()) {
        // Canonical unions never nest unions or contain eps, so kind() is
        // well defined for every alternative.
        size_t k = static_cast<size_t>(alt->kind());
        if (seen[k]) return false;
        seen[k] = true;
        if (!IsNormalImpl(*alt, /*star_body=*/false)) return false;
      }
      return true;
    }
  }
  return true;
}

}  // namespace

bool IsNormal(const Type& t) { return IsNormalImpl(t, /*star_body=*/false); }

std::vector<TypeRef> Flatten(const TypeRef& t) {
  if (t->is_empty()) return {};
  if (t->is_union()) return t->alternatives();
  return {t};
}

}  // namespace jsonsi::types
