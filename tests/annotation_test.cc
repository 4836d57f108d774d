// Property-based suites for the Annotation monoid lattice
// (annotate/annotation.h) and the tagged-union refinement built on it
// (annotate/refine.h):
//
//   associativity:  (A . B) . C == A . (B . C)
//   commutativity:  A . B == B . A
//   identity:       A . e == e . A == A
//   fold order:     any bracketing/permutation of a fold agrees with serial
//   path parity:    DOM ObserveValue == tokenizer-driven DirectInferType
//
// checked over randomly generated values (parameterized by seed). Every law
// runs in TWO modes (testing::Combine), with type interning + fusion
// memoization on and off: annotations are keyed by schema position, not by
// (hash-consed) type node, so acceleration of the type side must never
// change a single accumulated statistic. A failure in only the accelerated
// leg would pinpoint annotation state leaking into the shared caches.
//
// Plus deterministic unit tests for the bounded components (bottom-K
// exactness, truncation flags, sketch merge = observe-union) and for the
// refinement analysis (detection, conservatism under truncation).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "annotate/annotation.h"
#include "annotate/refine.h"
#include "fusion/fuse.h"
#include "inference/direct_infer.h"
#include "inference/infer.h"
#include "json/parser.h"
#include "json/serializer.h"
#include "random_value_gen.h"
#include "types/type.h"

namespace jsonsi::annotate {
namespace {

using json::ValueRef;
using types::TypeRef;

enum class AccelMode { kPlain, kAccelerated };

const char* ModeName(AccelMode mode) {
  return mode == AccelMode::kPlain ? "plain" : "accelerated";
}

fusion::Fuser MakeFuser(AccelMode mode) {
  fusion::FuseOptions opts;
  if (mode == AccelMode::kPlain) {
    opts.intern = false;
    opts.memoize = false;
    opts.dedup = false;
  }
  return fusion::Fuser(opts);
}

Annotation AnnotationOf(const json::Value& value) {
  Annotation a;
  ObserveValue(value, &a);
  return a;
}

class AnnotationProperties
    : public ::testing::TestWithParam<std::tuple<uint64_t, AccelMode>> {
 protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  AccelMode mode() const { return std::get<1>(GetParam()); }
};

TEST_P(AnnotationProperties, MergeIsAssociative) {
  auto values = jsonsi::testing::RandomValues(seed(), 3);
  fusion::Fuser fuser = MakeFuser(mode());
  // Fusing the types alongside exercises the interning/memoization caches
  // between annotation merges.
  TypeRef fused = types::Type::Empty();
  for (const ValueRef& v : values) {
    fused = fuser.Fuse(fused, inference::InferType(*v));
  }
  Annotation a = AnnotationOf(*values[0]);
  Annotation b = AnnotationOf(*values[1]);
  Annotation c = AnnotationOf(*values[2]);

  Annotation left = a.Clone();   // (a . b) . c
  left.MergeFrom(b);
  left.MergeFrom(c);
  Annotation bc = b.Clone();     // a . (b . c)
  bc.MergeFrom(c);
  Annotation right = a.Clone();
  right.MergeFrom(bc);
  EXPECT_TRUE(left.Equals(right)) << "mode=" << ModeName(mode());
}

TEST_P(AnnotationProperties, MergeIsCommutative) {
  auto values = jsonsi::testing::RandomValues(seed(), 2);
  fusion::Fuser fuser = MakeFuser(mode());
  fuser.Fuse(inference::InferType(*values[0]),
             inference::InferType(*values[1]));
  Annotation a = AnnotationOf(*values[0]);
  Annotation b = AnnotationOf(*values[1]);
  Annotation ab = a.Clone();
  ab.MergeFrom(b);
  Annotation ba = b.Clone();
  ba.MergeFrom(a);
  EXPECT_TRUE(ab.Equals(ba)) << "mode=" << ModeName(mode());
}

TEST_P(AnnotationProperties, IdentityIsNeutral) {
  Annotation a = AnnotationOf(*jsonsi::testing::RandomValue(seed()));
  Annotation left;  // e . a
  left.MergeFrom(a);
  EXPECT_TRUE(left.Equals(a));
  Annotation right = a.Clone();  // a . e
  right.MergeFrom(Annotation());
  EXPECT_TRUE(right.Equals(a));
  Annotation e1, e2;  // e . e == e
  e1.MergeFrom(e2);
  EXPECT_TRUE(e1.Equals(Annotation()));
}

TEST_P(AnnotationProperties, FoldOrderIndependent) {
  auto values = jsonsi::testing::RandomValues(seed(), 16);
  fusion::Fuser fuser = MakeFuser(mode());

  // Serial left fold, with the types fused alongside.
  Annotation serial;
  TypeRef serial_type = types::Type::Empty();
  for (const ValueRef& v : values) {
    serial.MergeFrom(AnnotationOf(*v));
    serial_type = fuser.Fuse(serial_type, inference::InferType(*v));
  }

  // Shuffled fold.
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(seed() * 7919 + 17);
  std::shuffle(order.begin(), order.end(), rng);
  Annotation shuffled;
  TypeRef shuffled_type = types::Type::Empty();
  for (size_t i : order) {
    shuffled.MergeFrom(AnnotationOf(*values[i]));
    shuffled_type = fuser.Fuse(shuffled_type, inference::InferType(*values[i]));
  }
  EXPECT_TRUE(serial.Equals(shuffled)) << "mode=" << ModeName(mode());
  EXPECT_TRUE(serial_type->Equals(*shuffled_type));

  // Pairwise tree reduction, the parallel pipeline's bracketing.
  std::vector<Annotation> level;
  for (const ValueRef& v : values) level.push_back(AnnotationOf(*v));
  while (level.size() > 1) {
    std::vector<Annotation> next;
    for (size_t i = 0; i < level.size(); i += 2) {
      if (i + 1 < level.size()) level[i].MergeFrom(level[i + 1]);
      next.push_back(std::move(level[i]));
    }
    level = std::move(next);
  }
  EXPECT_TRUE(serial.Equals(level[0])) << "mode=" << ModeName(mode());

  // And the refinement derived from the fold is order-independent too.
  EXPECT_EQ(RefineTaggedUnions(serial) == RefineTaggedUnions(level[0]), true);
}

TEST_P(AnnotationProperties, DomAndDirectPathsAgree) {
  auto values = jsonsi::testing::RandomValues(seed(), 8);
  fusion::Fuser fuser = MakeFuser(mode());
  json::ParseOptions parse;
  Annotation dom;
  Annotation direct;
  for (const ValueRef& v : values) {
    std::string text = json::ToJson(*v);
    Annotation rec_dom;
    TypeRef t_dom = inference::InferType(*v, &rec_dom);
    Annotation rec_direct;
    auto t_direct = inference::DirectInferType(text, parse, &rec_direct);
    ASSERT_TRUE(t_direct.ok()) << t_direct.status().message();
    EXPECT_TRUE(t_dom->Equals(*t_direct.value()));
    EXPECT_TRUE(rec_dom.Equals(rec_direct))
        << "mode=" << ModeName(mode()) << " text=" << text;
    // Annotated inference must return the same type as un-annotated.
    EXPECT_TRUE(t_dom->Equals(*inference::InferType(*v)));
    auto t_plain = inference::DirectInferType(text, parse);
    ASSERT_TRUE(t_plain.ok());
    EXPECT_TRUE(t_direct.value()->Equals(*t_plain.value()));
    fuser.Fuse(t_dom, t_direct.value());
    dom.MergeFrom(rec_dom);
    direct.MergeFrom(rec_direct);
  }
  EXPECT_TRUE(dom.Equals(direct));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, AnnotationProperties,
    ::testing::Combine(::testing::Range<uint64_t>(0, 20),
                       ::testing::Values(AccelMode::kPlain,
                                         AccelMode::kAccelerated)),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, AccelMode>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
             ModeName(std::get<1>(info.param));
    });

// ------------------------------------------------------- bounded components

TEST(DistinctSampleTest, BottomKIsExactUnderAnySplit) {
  // 40 distinct encoded values; the kept sample must be the K smallest no
  // matter how observations are split across partial samples.
  std::vector<std::string> encoded;
  for (int i = 0; i < 40; ++i) {
    encoded.push_back(EncodeStr("v" + std::to_string(100 + i * 3)));
  }
  std::vector<std::string> expected = encoded;
  std::sort(expected.begin(), expected.end());
  expected.resize(kDistinctSampleCap);

  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::string> shuffled = encoded;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    DistinctSample parts[3];
    for (size_t i = 0; i < shuffled.size(); ++i) {
      parts[rng() % 3].Observe(shuffled[i]);
    }
    DistinctSample merged;
    for (const DistinctSample& p : parts) merged.MergeFrom(p);
    EXPECT_EQ(merged.values, expected);
    EXPECT_TRUE(merged.truncated);
    EXPECT_EQ(merged.observations, encoded.size());
  }
}

TEST(DistinctSampleTest, SmallSetsStayComplete) {
  DistinctSample s;
  s.Observe(EncodeNum(2));
  s.Observe(EncodeNum(1));
  s.Observe(EncodeNum(2));  // duplicate
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.values.size(), 2u);
  EXPECT_EQ(s.observations, 3u);
}

TEST(DistinctSampleTest, OversizedValuesCountButDoNotSample) {
  DistinctSample s;
  s.Observe(EncodeStr(std::string(2 * kMaxSampledScalarBytes, 'x')));
  EXPECT_TRUE(s.truncated);
  EXPECT_TRUE(s.values.empty());
  EXPECT_EQ(s.observations, 1u);
}

TEST(DistinctSketchTest, MergeEqualsObservingTheUnion) {
  DistinctSketch left, right, whole;
  for (int i = 0; i < 200; ++i) {
    std::string e = EncodeNum(i);
    (i % 2 ? left : right).Observe(e);
    whole.Observe(e);
  }
  DistinctSketch merged = left;
  merged.MergeFrom(right);
  EXPECT_TRUE(merged.Equals(whole));
  // The estimate is a derived quantity; sanity-check it is in the right
  // ballpark (p=8 standard error ~6.5%, allow a generous 25%).
  EXPECT_NEAR(whole.Estimate(), 200.0, 50.0);
}

TEST(MinMaxTest, NegativeZeroCanonicalizes) {
  std::string encoded;
  Annotation a;
  a.ObserveNum(-0.0, &encoded);
  Annotation b;
  b.ObserveNum(0.0, &encoded);
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(std::signbit(a.num_range.min));
}

TEST(AnnotationNodeTest, FieldPresenceCountsOptionality) {
  auto parse = [](std::string_view text) {
    auto v = json::Parse(text);
    EXPECT_TRUE(v.ok());
    return std::move(v).value();
  };
  Annotation root;
  ObserveValue(*parse(R"({"id":1,"tag":"a"})"), &root);
  ObserveValue(*parse(R"({"id":2})"), &root);
  EXPECT_EQ(root.record_count, 2u);
  ASSERT_EQ(root.fields.count("id"), 1u);
  ASSERT_EQ(root.fields.count("tag"), 1u);
  EXPECT_EQ(root.fields.at("id").present, 2u);
  EXPECT_EQ(root.fields.at("tag").present, 1u);
  EXPECT_TRUE(root.fields.at("id").node->num_range.seen);
  EXPECT_EQ(root.fields.at("id").node->num_range.min, 1.0);
  EXPECT_EQ(root.fields.at("id").node->num_range.max, 2.0);
}

TEST(ScalarEncodingTest, DisplayRoundTrips) {
  EXPECT_EQ(DecodeScalarDisplay(EncodeNull()), "null");
  EXPECT_EQ(DecodeScalarDisplay(EncodeBool(true)), "true");
  EXPECT_EQ(DecodeScalarDisplay(EncodeBool(false)), "false");
  EXPECT_EQ(DecodeScalarDisplay(EncodeNum(42)), "42");
  EXPECT_EQ(DecodeScalarDisplay(EncodeStr("id")), "\"id\"");
}

// ------------------------------------------------------------- refinement

Annotation AnnotateLines(const std::vector<std::string>& lines) {
  Annotation acc;
  for (const std::string& line : lines) {
    auto v = json::Parse(line);
    EXPECT_TRUE(v.ok()) << line;
    Annotation rec;
    ObserveValue(*v.value(), &rec);
    acc.MergeFrom(rec);
  }
  return acc;
}

TEST(RefineTest, DetectsDiscriminator) {
  Annotation root = AnnotateLines({
      R"({"type":"a","x":1})",
      R"({"type":"a","x":2})",
      R"({"type":"b","y":"s"})",
  });
  RefinementMap m = RefineTaggedUnions(root);
  ASSERT_EQ(m.count(""), 1u);
  const Refinement& r = m.at("");
  EXPECT_EQ(r.discriminator, "type");
  ASSERT_EQ(r.variants.size(), 2u);
  // Variants sort by smallest discriminator value: "a" then "b".
  EXPECT_EQ(r.variants[0].values, std::vector<std::string>{EncodeStr("a")});
  EXPECT_EQ(r.variants[0].count, 2u);
  EXPECT_EQ(r.variants[0].key_presence.at("x"), 2u);
  EXPECT_EQ(r.variants[1].values, std::vector<std::string>{EncodeStr("b")});
  EXPECT_EQ(r.variants[1].count, 1u);
  EXPECT_EQ(r.variants[1].key_presence.at("y"), 1u);
}

TEST(RefineTest, DetectsNestedAndArrayPositions) {
  Annotation root = AnnotateLines({
      R"({"ev":[{"kind":"click","x":1},{"kind":"move","dx":2}]})",
      R"({"ev":[{"kind":"click","x":3}]})",
  });
  RefinementMap m = RefineTaggedUnions(root);
  ASSERT_EQ(m.count("ev[]"), 1u);
  EXPECT_EQ(m.at("ev[]").discriminator, "kind");
  EXPECT_EQ(m.at("ev[]").variants.size(), 2u);
}

TEST(RefineTest, SingleShapeDoesNotRefine) {
  Annotation root = AnnotateLines({
      R"({"type":"a","x":1})",
      R"({"type":"b","x":2})",
  });
  EXPECT_TRUE(RefineTaggedUnions(root).empty());
}

TEST(RefineTest, SharedValueCollapsesGroups) {
  // Two shapes, but the only always-present field holds the same value in
  // both — one union-find group, so no partition exists.
  Annotation root = AnnotateLines({
      R"({"t":"a","x":1})",
      R"({"t":"a","y":2})",
  });
  EXPECT_TRUE(RefineTaggedUnions(root).empty());
}

TEST(RefineTest, TruncatedSampleDisqualifiesCandidate) {
  // >kDistinctSampleCap distinct "id" values truncate the per-shape sample;
  // a truncated candidate must be disqualified, not guessed at.
  std::vector<std::string> lines;
  for (size_t i = 0; i < kDistinctSampleCap + 4; ++i) {
    lines.push_back(R"({"id":"v)" + std::to_string(i) + R"(","x":1})");
  }
  lines.push_back(R"({"id":"zz","y":2})");
  EXPECT_TRUE(RefineTaggedUnions(AnnotateLines(lines)).empty());
}

TEST(RefineTest, NonCoveringFieldIsNotACandidate) {
  // "type" misses from the second shape entirely; no field is present in
  // every record of every shape, so nothing can discriminate.
  Annotation root = AnnotateLines({
      R"({"type":"a","x":1})",
      R"({"y":2})",
  });
  EXPECT_TRUE(RefineTaggedUnions(root).empty());
}

TEST(RefineTest, MultiValueVariantGroups) {
  // Values "a" and "b" select the same shape set {x}, "c" selects {y}:
  // union-find pools a+b into one variant with both values.
  Annotation root = AnnotateLines({
      R"({"type":"a","x":1})",
      R"({"type":"b","x":2})",
      R"({"type":"c","y":"s"})",
      R"({"type":"c"})",
  });
  RefinementMap m = RefineTaggedUnions(root);
  ASSERT_EQ(m.count(""), 1u);
  const Refinement& r = m.at("");
  ASSERT_EQ(r.variants.size(), 2u);
  EXPECT_EQ(r.variants[0].values,
            (std::vector<std::string>{EncodeStr("a"), EncodeStr("b")}));
  EXPECT_EQ(r.variants[0].count, 2u);
  EXPECT_EQ(r.variants[1].values, std::vector<std::string>{EncodeStr("c")});
  EXPECT_EQ(r.variants[1].count, 2u);
  EXPECT_EQ(r.variants[1].key_presence.at("type"), 2u);
  EXPECT_EQ(r.variants[1].key_presence.at("y"), 1u);
}

TEST(RefineTest, FormatIsDeterministic) {
  Annotation root = AnnotateLines({
      R"({"type":"a","x":1})",
      R"({"type":"b","y":"s"})",
  });
  RefinementMap m = RefineTaggedUnions(root);
  std::string report = FormatRefinements(m);
  EXPECT_NE(report.find("discriminated by \"type\" into 2 variants"),
            std::string::npos)
      << report;
  EXPECT_EQ(report, FormatRefinements(RefineTaggedUnions(root)));
}

}  // namespace
}  // namespace jsonsi::annotate
