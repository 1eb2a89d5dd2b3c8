#include <gtest/gtest.h>

#include <numeric>

#include "common/random.h"
#include "core/importance.h"
#include "instance/data_tree.h"
#include "schema/schema_builder.h"
#include "stats/annotate.h"

namespace ssum {
namespace {

struct Star {
  // Ids are declared before `schema`: Make() fills them while the schema
  // member is being initialized, so they must already be constructed.
  ElementId hub = 0;
  std::vector<ElementId> leaves;
  SchemaGraph schema;

  explicit Star(int n_leaves) : schema(Make(n_leaves, this)) {}

  static SchemaGraph Make(int n_leaves, Star* s) {
    SchemaBuilder b("root");
    s->hub = b.SetRcd(b.Root(), "hub");
    for (int i = 0; i < n_leaves; ++i) {
      s->leaves.push_back(b.Simple(s->hub, "leaf" + std::to_string(i)));
    }
    return std::move(b).Build();
  }
};

Annotations StarAnnotations(const Star& star, uint64_t hub_card,
                            uint64_t leaf_card) {
  Annotations ann(star.schema);
  ann.set_card(star.schema.root(), 1);
  ann.set_card(star.hub, hub_card);
  for (ElementId leaf : star.leaves) ann.set_card(leaf, leaf_card);
  // Structural counts: each hub instance under the root, each leaf under a
  // hub instance.
  for (LinkId l = 0; l < star.schema.structural_links().size(); ++l) {
    const StructuralLink& s = star.schema.structural_links()[l];
    ann.set_structural_count(l, ann.card(s.child));
  }
  return ann;
}

TEST(ImportanceTest, TotalImportanceIsInvariant) {
  Star star(5);
  Annotations ann = StarAnnotations(star, 10, 20);
  ImportanceOptions opts;
  opts.convergence_threshold = 1e-9;
  opts.max_iterations = 5000;
  ImportanceResult r = ComputeImportance(star.schema, ann, opts);
  double total =
      std::accumulate(r.importance.begin(), r.importance.end(), 0.0);
  EXPECT_NEAR(total, ann.TotalCard(), ann.TotalCard() * 1e-6);
}

TEST(ImportanceTest, FullyDataDrivenKeepsCardinalities) {
  Star star(3);
  Annotations ann = StarAnnotations(star, 7, 13);
  ImportanceOptions opts;
  opts.neighborhood_factor = 1.0;
  ImportanceResult r = ComputeImportance(star.schema, ann, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_DOUBLE_EQ(r.importance[star.hub], 7.0);
  EXPECT_DOUBLE_EQ(r.importance[star.leaves[0]], 13.0);
}

TEST(ImportanceTest, HubAccumulatesImportance) {
  Star star(8);
  Annotations ann = StarAnnotations(star, 10, 10);
  ImportanceResult r = ComputeImportance(star.schema, ann);
  EXPECT_TRUE(r.converged);
  // The hub receives all leaves' shares; each leaf only the hub's 1/9th.
  EXPECT_GT(r.importance[star.hub], r.importance[star.leaves[0]] * 3);
}

TEST(ImportanceTest, HigherCardinalityChildWinsUnderEqualStructure) {
  SchemaBuilder b("root");
  ElementId coll = b.Rcd(b.Root(), "coll");
  ElementId heavy = b.SetRcd(coll, "heavy");
  ElementId light = b.SetRcd(coll, "light");
  SchemaGraph schema = std::move(b).Build();
  Annotations ann(schema);
  ann.set_card(schema.root(), 1);
  ann.set_card(coll, 1);
  ann.set_card(heavy, 1000);
  ann.set_card(light, 10);
  ann.set_structural_count(schema.parent_link(coll), 1);
  ann.set_structural_count(schema.parent_link(heavy), 1000);
  ann.set_structural_count(schema.parent_link(light), 10);
  ImportanceResult r = ComputeImportance(schema, ann);
  EXPECT_GT(r.importance[heavy], r.importance[light] * 10);
}

TEST(ImportanceTest, RankedOrderIsDescendingAndDeterministic) {
  Star star(4);
  Annotations ann = StarAnnotations(star, 5, 9);
  ImportanceResult r = ComputeImportance(star.schema, ann);
  std::vector<ElementId> ranked = r.Ranked();
  ASSERT_EQ(ranked.size(), star.schema.size());
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(r.importance[ranked[i - 1]], r.importance[ranked[i]]);
  }
  // Equal-importance leaves tie-break by id.
  ImportanceResult r2 = ComputeImportance(star.schema, ann);
  EXPECT_EQ(ranked, r2.Ranked());
}

TEST(ImportanceTest, SchemaDrivenModeIgnoresData) {
  Star star(3);
  Annotations uniform = Annotations::Uniform(star.schema);
  ImportanceOptions opts;
  opts.cardinality_init = false;
  ImportanceResult r = ComputeImportance(star.schema, uniform, opts);
  // All leaves identical by symmetry.
  EXPECT_NEAR(r.importance[star.leaves[0]], r.importance[star.leaves[2]],
              1e-9);
  // The hub is better connected than the root (leaves + root vs hub only).
  EXPECT_GT(r.importance[star.hub], r.importance[star.schema.root()]);
}

TEST(ImportanceTest, IterationCapReportsNonConvergence) {
  Star star(6);
  Annotations ann = StarAnnotations(star, 10, 100);
  ImportanceOptions opts;
  opts.max_iterations = 1;
  opts.convergence_threshold = 1e-12;
  ImportanceResult r = ComputeImportance(star.schema, ann, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 1);
}

TEST(ImportanceTest, ConvergesAcrossTheWholePRange) {
  // The paper reports stability of the ranking for p in [0.1, 0.9]; here we
  // check the iteration converges for extreme settings and that total
  // importance is conserved regardless of p.
  Star star(6);
  Annotations ann = StarAnnotations(star, 10, 100);
  for (double p : {0.05, 0.1, 0.5, 0.9, 0.99}) {
    ImportanceOptions opts;
    opts.neighborhood_factor = p;
    ImportanceResult r = ComputeImportance(star.schema, ann, opts);
    EXPECT_TRUE(r.converged) << "p=" << p;
    double total =
        std::accumulate(r.importance.begin(), r.importance.end(), 0.0);
    EXPECT_NEAR(total, ann.TotalCard(), ann.TotalCard() * 0.02) << "p=" << p;
  }
}

// Property: on random trees with random cardinalities, total importance is
// conserved and importances are non-negative.
class ImportancePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ImportancePropertyTest, ConservationOnRandomTrees) {
  Rng rng(GetParam());
  SchemaBuilder b("root");
  std::vector<ElementId> nodes{b.Root()};
  int n = 20 + static_cast<int>(rng.NextBounded(40));
  for (int i = 0; i < n; ++i) {
    ElementId parent = nodes[rng.NextBounded(nodes.size())];
    bool simple = rng.NextBool(0.3);
    const std::string suffix = std::to_string(i);
    ElementId e = simple ? b.Simple(parent, std::string("s").append(suffix))
                         : b.SetRcd(parent, std::string("r").append(suffix));
    // Simple elements cannot take children, so only interior nodes are
    // eligible parents for later additions.
    if (!simple) nodes.push_back(e);
  }
  SchemaGraph schema = std::move(b).Build();
  Annotations ann(schema);
  ann.set_card(schema.root(), 1);
  for (ElementId e = 1; e < schema.size(); ++e) {
    ann.set_card(e, 1 + rng.NextBounded(1000));
    ann.set_structural_count(schema.parent_link(e), ann.card(e));
  }
  ImportanceOptions opts;
  opts.convergence_threshold = 1e-8;
  opts.max_iterations = 20000;
  ImportanceResult r = ComputeImportance(schema, ann, opts);
  double total =
      std::accumulate(r.importance.begin(), r.importance.end(), 0.0);
  EXPECT_NEAR(total, ann.TotalCard(), ann.TotalCard() * 1e-5);
  for (double v : r.importance) EXPECT_GE(v, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImportancePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ssum
