// Cross-module property tests over randomized schemas and databases:
// RandomWorld schemas with consistent annotations, and tiny generated
// scenarios for the instance-level properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/random.h"
#include "core/metrics.h"
#include "core/multilevel.h"
#include "core/summarize.h"
#include "datasets/scenario.h"
#include "instance/conformance.h"
#include "instance/materialize.h"
#include "query/discovery.h"
#include "schema/schema_builder.h"
#include "xml/instance_bridge.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "schema/schema_io.h"
#include "schema/validate.h"
#include "stats/annotate.h"

namespace ssum {
namespace {

/// Random schema + consistent random annotations.
struct RandomWorld {
  // Note: declaration order matters — `interior` is filled while `schema`
  // is built, and `ann` derives from `schema`.
  std::vector<ElementId> interior;
  SchemaGraph schema;
  Annotations ann;

  explicit RandomWorld(uint64_t seed) : schema(MakeSchema(seed, &interior)),
                                        ann(MakeAnnotations(seed)) {}

 private:
  static SchemaGraph MakeSchema(uint64_t seed,
                                std::vector<ElementId>* interior) {
    Rng rng(seed);
    SchemaBuilder b("root");
    std::vector<ElementId> parents{b.Root()};
    interior->clear();
    size_t n = 15 + rng.NextBounded(35);
    for (size_t i = 0; i < n; ++i) {
      ElementId parent = parents[rng.NextBounded(parents.size())];
      const std::string suffix = std::to_string(i);
      if (rng.NextBool(0.35)) {
        b.Simple(parent, std::string("s").append(suffix));
      } else {
        ElementId e = rng.NextBool(0.7)
                          ? b.SetRcd(parent, std::string("r").append(suffix))
                          : b.Rcd(parent, std::string("q").append(suffix));
        parents.push_back(e);
        interior->push_back(e);
      }
    }
    // A few random value links between interior elements.
    Rng link_rng(seed ^ 0xabcdef);
    for (int i = 0; i < 4 && interior->size() >= 2; ++i) {
      ElementId from = (*interior)[link_rng.NextBounded(interior->size())];
      ElementId to = (*interior)[link_rng.NextBounded(interior->size())];
      if (from != to) b.Link(from, to);
    }
    return std::move(b).Build();
  }

  Annotations MakeAnnotations(uint64_t seed) {
    Rng rng(seed ^ 0x5555);
    Annotations a(schema);
    a.set_card(schema.root(), 1);
    // Children get card = parent card * random fanout (consistent tree).
    for (ElementId e = 1; e < schema.size(); ++e) {
      uint64_t parent_card = a.card(schema.parent(e));
      uint64_t fanout = schema.type(e).set_of ? 1 + rng.NextBounded(6) : 1;
      uint64_t card = parent_card * fanout;
      if (rng.NextBool(0.1)) card = std::max<uint64_t>(1, card / 2);  // optional
      a.set_card(e, card);
      a.set_structural_count(schema.parent_link(e), card);
    }
    for (LinkId l = 0; l < schema.value_links().size(); ++l) {
      const ValueLink& v = schema.value_links()[l];
      a.set_value_count(l, std::min(a.card(v.referrer), a.card(v.referee)));
    }
    return a;
  }
};

/// A tiny generated scenario for the instance-level properties. The element
/// budget (15-50) follows the seed; Choice groups and value links widen the
/// shapes beyond what RandomWorld builds.
ScenarioSpec TinySpec(uint64_t seed) {
  Rng rng(seed);
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.seed = seed;
  spec.schema_elements = 15 + static_cast<uint32_t>(rng.NextBounded(36));
  spec.entity_classes = 3;
  spec.max_depth = 5;
  spec.choice_fraction = 0.15;
  spec.value_link_fraction = 0.1;
  spec.instance_units = 12;
  spec.set_mean = 2.0;
  return spec;
}

class PropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertyTest, SchemaIoRoundTripsRandomSchemas) {
  RandomWorld w(GetParam());
  EXPECT_TRUE(ValidateSchemaGraph(w.schema).ok());
  auto parsed = ParseSchema(SerializeSchema(w.schema));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(SerializeSchema(*parsed), SerializeSchema(w.schema));
}

TEST_P(PropertyTest, AffinityWithinBoundsAndSelfUnit) {
  RandomWorld w(GetParam());
  EdgeMetrics metrics = EdgeMetrics::Compute(w.schema, w.ann);
  AffinityMatrix aff = AffinityMatrix::Compute(w.schema, metrics);
  for (ElementId a = 0; a < w.schema.size(); ++a) {
    EXPECT_DOUBLE_EQ(aff.At(a, a), 1.0);
    for (ElementId b = 0; b < w.schema.size(); ++b) {
      EXPECT_GE(aff.At(a, b), 0.0);
      EXPECT_LE(aff.At(a, b), 1.0 + 1e-9);
    }
  }
}

TEST_P(PropertyTest, CoverageNeverExceedsTargetCardinality) {
  RandomWorld w(GetParam());
  EdgeMetrics metrics = EdgeMetrics::Compute(w.schema, w.ann);
  CoverageMatrix cov = CoverageMatrix::Compute(w.schema, w.ann, metrics);
  for (ElementId a = 0; a < w.schema.size(); ++a) {
    for (ElementId b = 0; b < w.schema.size(); ++b) {
      EXPECT_GE(cov.At(a, b), 0.0);
      EXPECT_LE(cov.At(a, b),
                static_cast<double>(w.ann.card(b)) * (1.0 + 1e-9));
    }
  }
}

TEST_P(PropertyTest, SummariesAreValidForAllAlgorithms) {
  RandomWorld w(GetParam());
  size_t k = std::min<size_t>(4, w.schema.size() - 2);
  if (k == 0) return;
  for (Algorithm alg : {Algorithm::kMaxImportance, Algorithm::kMaxCoverage,
                        Algorithm::kBalanceSummary}) {
    auto summary = Summarize(w.schema, w.ann, k, alg);
    ASSERT_TRUE(summary.ok())
        << AlgorithmName(alg) << ": " << summary.status().ToString();
    EXPECT_TRUE(ValidateSummary(*summary).ok()) << AlgorithmName(alg);
  }
}

TEST_P(PropertyTest, SummaryCoverageRatioInUnitInterval) {
  RandomWorld w(GetParam());
  size_t k = std::min<size_t>(4, w.schema.size() - 2);
  if (k == 0) return;
  auto context = SummarizerContext::Make(w.schema, w.ann);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  auto summary = Summarize(*context, k);
  ASSERT_TRUE(summary.ok());
  double ratio =
      SummaryCoverageRatio(w.schema, w.ann, context->coverage(), *summary);
  EXPECT_GE(ratio, 0.0);
  EXPECT_LE(ratio, 1.0 + 1e-9);
  double imp = SummaryImportanceRatio(
      w.schema, context->importance().importance, *summary);
  EXPECT_GE(imp, 0.0);
  EXPECT_LE(imp, 1.0 + 1e-9);
}

TEST_P(PropertyTest, DiscoveryCompletesForEveryElement) {
  RandomWorld w(GetParam());
  DiscoveryOracle oracle(w.schema);
  for (ElementId target = 1; target < w.schema.size(); ++target) {
    for (TraversalStrategy s :
         {TraversalStrategy::kDepthFirst, TraversalStrategy::kBreadthFirst,
          TraversalStrategy::kBestFirst}) {
      DiscoveryResult r = Discover(oracle, {"q", {target}}, s);
      EXPECT_TRUE(r.complete)
          << TraversalStrategyName(s) << " " << w.schema.PathOf(target);
      // Cost is bounded by the schema size.
      EXPECT_LE(r.cost, w.schema.size());
    }
  }
}

TEST_P(PropertyTest, DiscoveryWithSummaryCompletes) {
  RandomWorld w(GetParam());
  size_t k = std::min<size_t>(4, w.schema.size() - 2);
  if (k == 0) return;
  auto summary = Summarize(w.schema, w.ann, k);
  ASSERT_TRUE(summary.ok());
  DiscoveryOracle oracle(w.schema);
  for (ElementId target = 1; target < w.schema.size(); ++target) {
    DiscoveryResult r = DiscoverWithSummary(oracle, *summary, {"q", {target}});
    EXPECT_TRUE(r.complete) << w.schema.PathOf(target);
    EXPECT_LE(r.cost, w.schema.size() + k);
  }
}

TEST_P(PropertyTest, CollapsedSummaryStaysConsistent) {
  RandomWorld w(GetParam());
  size_t k = std::min<size_t>(5, w.schema.size() - 2);
  if (k < 2) return;
  auto summary = Summarize(w.schema, w.ann, k);
  ASSERT_TRUE(summary.ok());
  auto collapsed = CollapseSummary(w.schema, w.ann, *summary);
  ASSERT_TRUE(collapsed.ok()) << collapsed.status().ToString();
  EXPECT_EQ(collapsed->graph.size(), k + 1);
  EXPECT_TRUE(ValidateSchemaGraph(collapsed->graph).ok());
}

TEST_P(PropertyTest, DominanceAgreesWithCoverageSwap) {
  RandomWorld w(GetParam());
  auto context = SummarizerContext::Make(w.schema, w.ann);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  for (const DominancePair& p : context->dominance().pairs) {
    double dominated_cov = CoverageOfSet(w.schema, context->affinity(),
                                         context->coverage(), {p.dominated});
    double dominator_cov = CoverageOfSet(w.schema, context->affinity(),
                                         context->coverage(), {p.dominator});
    EXPECT_GE(dominator_cov + 1e-6, dominated_cov)
        << w.schema.PathOf(p.dominator) << " vs "
        << w.schema.PathOf(p.dominated);
  }
}

TEST_P(PropertyTest, RandomInstancesConformAndAnnotate) {
  auto ds = ScenarioDataset::Make(TinySpec(GetParam()));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const SchemaGraph& schema = ds->schema();
  auto tree = MaterializeToDataTree(*ds->MakeStream());
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_TRUE(CheckConformance(*tree).ok());
  auto ann = AnnotateSchema(*tree);
  ASSERT_TRUE(ann.ok()) << ann.status().ToString();
  // Every data node is counted exactly once.
  EXPECT_DOUBLE_EQ(ann->TotalCard(), static_cast<double>(tree->size()));
  // The instance-derived annotations drive a valid summary.
  size_t k = std::min<size_t>(3, schema.size() - 2);
  if (k > 0) {
    auto summary = Summarize(schema, *ann, k);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_TRUE(ValidateSummary(*summary).ok());
  }
}

TEST_P(PropertyTest, XmlRoundTripPreservesCardinalities) {
  auto ds = ScenarioDataset::Make(TinySpec(GetParam()));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const SchemaGraph& schema = ds->schema();
  auto tree = MaterializeToDataTree(*ds->MakeStream());
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto doc = MaterializeToXml(*tree);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto parsed = ParseXml(WriteXml(*doc));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto from_xml = AnnotateXmlDocument(schema, *parsed);
  ASSERT_TRUE(from_xml.ok()) << from_xml.status().ToString();
  Annotations direct = *AnnotateSchema(*tree);
  for (ElementId e = 0; e < schema.size(); ++e) {
    EXPECT_EQ(from_xml->card(e), direct.card(e)) << schema.PathOf(e);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Range<uint64_t>(100, 112));

}  // namespace
}  // namespace ssum
