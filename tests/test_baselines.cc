#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/cafp.h"
#include "baselines/semantic_labels.h"
#include "baselines/twbk.h"
#include "core/summary.h"
#include "datasets/mimi.h"
#include "schema/schema_builder.h"

namespace ssum {
namespace {

TEST(SemanticLabelsTest, WeightsOrdering) {
  // Containment is the strongest glue; references the weakest.
  EXPECT_GT(SemanticsWeight(LinkSemantics::kContainment),
            SemanticsWeight(LinkSemantics::kAssociation));
  EXPECT_GT(SemanticsWeight(LinkSemantics::kAssociation),
            SemanticsWeight(LinkSemantics::kReference));
  EXPECT_GT(SemanticsWeight(LinkSemantics::kAttributeOf),
            SemanticsWeight(LinkSemantics::kUnknown));
}

TEST(SemanticLabelsTest, HeuristicIsUninformed) {
  SchemaBuilder b("r");
  ElementId e = b.SetRcd(b.Root(), "entity");
  b.Simple(e, "attr");
  b.SetRcd(e, "sub");
  SchemaGraph schema = std::move(b).Build();
  SemanticLabeling l = SemanticLabeling::Heuristic(schema);
  // Unsupervised labeling has no signal: every link Unknown, no entity
  // strengths (the paper: most labeling "can not be done automatically").
  for (LinkId i = 0; i < schema.structural_links().size(); ++i) {
    EXPECT_EQ(l.structural[i], LinkSemantics::kUnknown);
  }
  for (double s : l.entity_strength) EXPECT_EQ(s, 0.0);
}

TEST(SemanticLabelsTest, MimiHumanLabelingResolves) {
  MimiDataset ds;
  auto l = MimiHumanLabeling(ds.schema());
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  ElementId molecule = *ds.schema().FindPath("mimi/molecules/molecule");
  EXPECT_GT(l->entity_strength[molecule], 2.0);
  // Source provenance links are weak references.
  bool found_reference = false;
  for (LinkId i = 0; i < ds.schema().value_links().size(); ++i) {
    if (ds.schema().label(ds.schema().value_links()[i].referee) == "source") {
      EXPECT_EQ(l->value[i], LinkSemantics::kReference);
      found_reference = true;
    }
  }
  EXPECT_TRUE(found_reference);
}

TEST(TwbkTest, ProducesValidSummaries) {
  MimiDataset ds;
  for (bool human : {false, true}) {
    SemanticLabeling l = human ? *MimiHumanLabeling(ds.schema())
                               : SemanticLabeling::Heuristic(ds.schema());
    auto summary = TwbkSummarize(ds.schema(), l, 10);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_EQ(summary->size(), 10u);
    EXPECT_TRUE(ValidateSummary(*summary).ok());
  }
  EXPECT_FALSE(TwbkSummarize(ds.schema(),
                             SemanticLabeling::Heuristic(ds.schema()), 0)
                   .ok());
}

TEST(TwbkTest, HumanLabelsPickPrincipalEntities) {
  MimiDataset ds;
  auto human = MimiHumanLabeling(ds.schema());
  ASSERT_TRUE(human.ok());
  auto summary = TwbkSummarize(ds.schema(), *human, 10);
  ASSERT_TRUE(summary.ok());
  // With entity strengths, the clear top entities must be centers.
  ElementId molecule = *ds.schema().FindPath("mimi/molecules/molecule");
  ElementId interaction = *ds.schema().FindPath("mimi/interactions/interaction");
  EXPECT_TRUE(summary->IsAbstract(molecule));
  EXPECT_TRUE(summary->IsAbstract(interaction));
}

TEST(TwbkTest, NeverSelectsSimpleElements) {
  MimiDataset ds;
  SemanticLabeling l = SemanticLabeling::Heuristic(ds.schema());
  auto summary = TwbkSummarize(ds.schema(), l, 10);
  ASSERT_TRUE(summary.ok());
  for (ElementId e : summary->abstract_elements) {
    EXPECT_NE(ds.schema().type(e).kind, TypeKind::kSimple)
        << ds.schema().PathOf(e);
  }
}

TEST(CafpTest, ProducesValidSummaries) {
  MimiDataset ds;
  for (bool human : {false, true}) {
    SemanticLabeling l = human ? *MimiHumanLabeling(ds.schema())
                               : SemanticLabeling::Heuristic(ds.schema());
    auto summary = CafpSummarize(ds.schema(), l, 10);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_EQ(summary->size(), 10u);
    EXPECT_TRUE(ValidateSummary(*summary).ok());
  }
  EXPECT_FALSE(CafpSummarize(ds.schema(),
                             SemanticLabeling::Heuristic(ds.schema()), 0)
                   .ok());
}

TEST(CafpTest, ClusterCountRespectsK) {
  SchemaBuilder b("r");
  std::vector<ElementId> ents;
  for (int i = 0; i < 8; ++i) {
    ElementId e =
        b.SetRcd(b.Root(), std::string("e").append(std::to_string(i)));
    b.Simple(e, "leaf" + std::to_string(i));
    ents.push_back(e);
  }
  SchemaGraph schema = std::move(b).Build();
  SemanticLabeling l = SemanticLabeling::Heuristic(schema);
  for (size_t k : {2u, 4u, 8u}) {
    auto summary = CafpSummarize(schema, l, k);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_EQ(summary->size(), k);
  }
}

}  // namespace
}  // namespace ssum
