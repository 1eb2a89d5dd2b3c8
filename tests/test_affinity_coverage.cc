#include <gtest/gtest.h>

#include <cstring>

#include "core/affinity.h"
#include "core/coverage.h"
#include "core/path_engine.h"
#include "datasets/registry.h"
#include "schema/schema_builder.h"
#include "stats/annotate.h"

namespace ssum {
namespace {

/// The paper's Section 3.2 worked example: open_auction `o` with child
/// bidder `b` (RC(o->b)=2, RC(b->o)=1) plus 10 further children each with
/// relative cardinality 1.
struct WorkedExample {
  // Ids precede `schema`: Make() fills them during schema construction.
  ElementId o = 0, b = 0;
  std::vector<ElementId> others;
  SchemaGraph schema;
  Annotations ann;

  WorkedExample() : schema(Make(this)), ann(schema) {
    // Card(o) = 10; RC(o->b) = 2 => 20 bidder instances; the other ten
    // children have RC 1 => 10 instances each.
    ann.set_card(schema.root(), 1);
    ann.set_card(o, 10);
    ann.set_structural_count(schema.parent_link(o), 10);
    ann.set_card(b, 20);
    ann.set_structural_count(schema.parent_link(b), 20);
    for (ElementId c : others) {
      ann.set_card(c, 10);
      ann.set_structural_count(schema.parent_link(c), 10);
    }
  }

  static SchemaGraph Make(WorkedExample* w) {
    SchemaBuilder builder("site");
    w->o = builder.SetRcd(builder.Root(), "open_auction");
    w->b = builder.SetRcd(w->o, "bidder");
    for (int i = 0; i < 10; ++i) {
      w->others.push_back(
          builder.Simple(w->o, std::string("c").append(std::to_string(i))));
    }
    return std::move(builder).Build();
  }
};

TEST(AffinityTest, PaperWorkedExample) {
  WorkedExample w;
  EdgeMetrics metrics = EdgeMetrics::Compute(w.schema, w.ann);
  AffinityMatrix aff = AffinityMatrix::Compute(w.schema, metrics);
  // "The affinities A_{b->o} and A_{o->b} will be close to 1.0 and 0.5."
  EXPECT_DOUBLE_EQ(aff.At(w.b, w.o), 1.0);
  EXPECT_DOUBLE_EQ(aff.At(w.o, w.b), 0.5);
}

TEST(CoverageTest, PaperWorkedExample) {
  WorkedExample w;
  EdgeMetrics metrics = EdgeMetrics::Compute(w.schema, w.ann);
  CoverageMatrix cov = CoverageMatrix::Compute(w.schema, w.ann, metrics);
  // C_{o->b} = Card_b * A(o->b) * W(b->o). b's neighbors: o (RC 1). But b
  // also connects upward only to o, so W(b->o) = 1 => 20 * 0.5 * 1 = 10.
  EXPECT_NEAR(cov.At(w.o, w.b), 20 * 0.5 * 1.0, 1e-9);
  // C_{b->o} = Card_o * A(b->o) * W(o->b); W(o->b) = 2 / (2 + 10*1 + RC to
  // root). RC(o->root)=10/10=1, so W = 2/13.
  EXPECT_NEAR(cov.At(w.b, w.o), 10 * 1.0 * (2.0 / 13.0), 1e-9);
}

TEST(AffinityTest, SelfAffinityIsOne) {
  WorkedExample w;
  EdgeMetrics metrics = EdgeMetrics::Compute(w.schema, w.ann);
  AffinityMatrix aff = AffinityMatrix::Compute(w.schema, metrics);
  for (ElementId e = 0; e < w.schema.size(); ++e) {
    EXPECT_DOUBLE_EQ(aff.At(e, e), 1.0);
  }
}

TEST(CoverageTest, SelfCoverageIsCardinality) {
  WorkedExample w;
  EdgeMetrics metrics = EdgeMetrics::Compute(w.schema, w.ann);
  CoverageMatrix cov = CoverageMatrix::Compute(w.schema, w.ann, metrics);
  for (ElementId e = 0; e < w.schema.size(); ++e) {
    EXPECT_DOUBLE_EQ(cov.At(e, e), static_cast<double>(w.ann.card(e)));
  }
}

TEST(AffinityTest, LongerPathsAreWeaker) {
  // Chain root -> a -> b -> c with RC 1 everywhere.
  SchemaBuilder builder("root");
  ElementId a = builder.SetRcd(builder.Root(), "a");
  ElementId b = builder.SetRcd(a, "b");
  ElementId c = builder.SetRcd(b, "c");
  SchemaGraph schema = std::move(builder).Build();
  Annotations ann = Annotations::Uniform(schema);
  EdgeMetrics metrics = EdgeMetrics::Compute(schema, ann);
  AffinityMatrix aff = AffinityMatrix::Compute(schema, metrics);
  // One step: product 1, /1 => 1. Two steps: product 1, /2 => 0.5. Three:
  // 1/3.
  EXPECT_DOUBLE_EQ(aff.At(a, b), 1.0);
  EXPECT_DOUBLE_EQ(aff.At(a, c), 0.5);
  EXPECT_NEAR(aff.At(schema.root(), c), 1.0 / 3.0, 1e-12);
  EXPECT_GT(aff.At(a, b), aff.At(a, c));
}

TEST(AffinityTest, UnreachableWithZeroRcEdge) {
  SchemaBuilder builder("root");
  ElementId a = builder.SetRcd(builder.Root(), "a");
  ElementId b = builder.SetRcd(a, "b");
  SchemaGraph schema = std::move(builder).Build();
  Annotations ann(schema);
  ann.set_card(schema.root(), 1);
  ann.set_card(a, 5);
  ann.set_structural_count(schema.parent_link(a), 5);
  // b never instantiated: RC(a->b) = 0 in both directions.
  EdgeMetrics metrics = EdgeMetrics::Compute(schema, ann);
  AffinityMatrix aff = AffinityMatrix::Compute(schema, metrics);
  EXPECT_DOUBLE_EQ(aff.At(a, b), 0.0);
  EXPECT_DOUBLE_EQ(aff.At(b, a), 0.0);
}

TEST(AffinityTest, MaxOverPathsPicksBestRoute) {
  // Diamond: root -> x -> z and root -> y -> z' with a value link x->y.
  // Affinity from x to y has a direct (value-link) route.
  SchemaBuilder builder("root");
  ElementId x = builder.SetRcd(builder.Root(), "x");
  ElementId y = builder.SetRcd(builder.Root(), "y");
  builder.Link(x, y);
  SchemaGraph schema = std::move(builder).Build();
  Annotations ann = Annotations::Uniform(schema);
  EdgeMetrics metrics = EdgeMetrics::Compute(schema, ann);
  AffinityMatrix aff = AffinityMatrix::Compute(schema, metrics);
  // Direct value link (1 step, RC=1): affinity 1. Via root: 2 steps => 0.5.
  EXPECT_DOUBLE_EQ(aff.At(x, y), 1.0);
}

TEST(PathEngineTest, StepBoundLimitsReach) {
  SchemaBuilder builder("root");
  ElementId cur = builder.Root();
  std::vector<ElementId> chain;
  for (int i = 0; i < 6; ++i) {
    cur = builder.SetRcd(cur, std::string("n").append(std::to_string(i)));
    chain.push_back(cur);
  }
  SchemaGraph schema = std::move(builder).Build();
  Annotations ann = Annotations::Uniform(schema);
  EdgeMetrics metrics = EdgeMetrics::Compute(schema, ann);
  WalkSearchOptions opts;
  opts.max_steps = 3;
  std::vector<double> best =
      MaxProductWalks(schema, metrics.edge_affinity, schema.root(), opts);
  EXPECT_GT(best[chain[2]], 0.0);
  EXPECT_EQ(best[chain[4]], 0.0);  // beyond the bound
}

TEST(PathEngineTest, DivideByStepsSemantics) {
  SchemaBuilder builder("root");
  ElementId a = builder.SetRcd(builder.Root(), "a");
  ElementId b = builder.SetRcd(a, "b");
  SchemaGraph schema = std::move(builder).Build();
  Annotations ann = Annotations::Uniform(schema);
  EdgeMetrics metrics = EdgeMetrics::Compute(schema, ann);
  WalkSearchOptions divide;
  divide.max_steps = 8;
  divide.divide_by_steps = true;
  WalkSearchOptions raw = divide;
  raw.divide_by_steps = false;
  auto with = MaxProductWalks(schema, metrics.edge_affinity, schema.root(),
                              divide);
  auto without =
      MaxProductWalks(schema, metrics.edge_affinity, schema.root(), raw);
  EXPECT_DOUBLE_EQ(without[b], 1.0);
  EXPECT_DOUBLE_EQ(with[b], 0.5);
}

TEST(CoverageTest, CompetitionReducesCoverage) {
  // A parent with many children covers each child less than a parent with
  // few children (the neighbor-weight "competition" of Section 3.2).
  auto build = [](int n_children, ElementId* parent, ElementId* child) {
    SchemaBuilder builder("root");
    *parent = builder.SetRcd(builder.Root(), "p");
    *child = builder.SetRcd(*parent, "c0");
    for (int i = 1; i < n_children; ++i) {
      builder.SetRcd(*parent, std::string("c").append(std::to_string(i)));
    }
    return std::move(builder).Build();
  };
  ElementId p_few, c_few, p_many, c_many;
  SchemaGraph few = build(2, &p_few, &c_few);
  SchemaGraph many = build(12, &p_many, &c_many);
  Annotations ann_few = Annotations::Uniform(few);
  Annotations ann_many = Annotations::Uniform(many);
  CoverageMatrix cov_few = CoverageMatrix::Compute(
      few, ann_few, EdgeMetrics::Compute(few, ann_few));
  CoverageMatrix cov_many = CoverageMatrix::Compute(
      many, ann_many, EdgeMetrics::Compute(many, ann_many));
  EXPECT_GT(cov_few.At(c_few, p_few), cov_many.At(c_many, p_many));
}

/// threads=1 and threads=8 must produce byte-identical matrices: the
/// row-parallel kernels have exactly one writer per row and chunk boundaries
/// independent of the worker count, so no float may differ.
class ParallelDeterminismTest : public ::testing::TestWithParam<DatasetKind> {};

bool ByteIdentical(const SquareMatrix& a, const SquareMatrix& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

TEST_P(ParallelDeterminismTest, AffinityMatrixIsThreadCountInvariant) {
  auto bundle = LoadDataset(GetParam(), 0.05);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EdgeMetrics metrics =
      EdgeMetrics::Compute(bundle->schema, bundle->annotations);
  ParallelOptions one, eight;
  one.threads = 1;
  eight.threads = 8;
  AffinityMatrix serial =
      AffinityMatrix::Compute(bundle->schema, metrics, {}, one);
  AffinityMatrix parallel =
      AffinityMatrix::Compute(bundle->schema, metrics, {}, eight);
  EXPECT_TRUE(ByteIdentical(serial.matrix(), parallel.matrix()));
}

TEST_P(ParallelDeterminismTest, CoverageMatrixIsThreadCountInvariant) {
  auto bundle = LoadDataset(GetParam(), 0.05);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EdgeMetrics metrics =
      EdgeMetrics::Compute(bundle->schema, bundle->annotations);
  ParallelOptions one, eight;
  one.threads = 1;
  eight.threads = 8;
  CoverageMatrix serial = CoverageMatrix::Compute(
      bundle->schema, bundle->annotations, metrics, {}, one);
  CoverageMatrix parallel = CoverageMatrix::Compute(
      bundle->schema, bundle->annotations, metrics, {}, eight);
  EXPECT_TRUE(ByteIdentical(serial.matrix(), parallel.matrix()));
}

INSTANTIATE_TEST_SUITE_P(Datasets, ParallelDeterminismTest,
                         ::testing::Values(DatasetKind::kXMark,
                                           DatasetKind::kTpch),
                         [](const auto& info) {
                           return info.param == DatasetKind::kXMark ? "XMark"
                                                                    : "Tpch";
                         });

}  // namespace
}  // namespace ssum
