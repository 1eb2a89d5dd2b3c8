#include <gtest/gtest.h>

#include <algorithm>

#include "core/multilevel.h"
#include "core/summarize.h"
#include "schema/schema_builder.h"
#include "stats/annotate.h"

namespace ssum {
namespace {

struct Fixture {
  // `entities` precedes `schema`: Make() fills it during construction.
  std::vector<ElementId> entities;
  SchemaGraph schema;
  Annotations ann;

  Fixture() : schema(Make(this)), ann(schema) {
    ann.set_card(schema.root(), 1);
    for (ElementId e = 1; e < schema.size(); ++e) {
      uint64_t card = 10 * e + 5;
      ann.set_card(e, card);
      ann.set_structural_count(schema.parent_link(e), card);
    }
  }

  static SchemaGraph Make(Fixture* f) {
    SchemaBuilder b("db");
    // Six entities, each with two leaves; entity i references entity i-1.
    std::vector<ElementId> prev;
    for (int i = 0; i < 6; ++i) {
      const std::string suffix = std::to_string(i);
      ElementId e = b.SetRcd(b.Root(), std::string("e").append(suffix));
      b.Simple(e, std::string("a").append(suffix));
      b.Simple(e, std::string("b").append(suffix));
      f->entities.push_back(e);
      if (i > 0) b.Link(e, f->entities[static_cast<size_t>(i) - 1]);
    }
    return std::move(b).Build();
  }
};

TEST(MultilevelTest, CollapsePreservesStructure) {
  Fixture f;
  SchemaSummary summary = *Summarize(f.schema, f.ann, 4);
  auto collapsed = CollapseSummary(f.schema, f.ann, summary);
  ASSERT_TRUE(collapsed.ok()) << collapsed.status().ToString();
  EXPECT_EQ(collapsed->graph.size(), summary.size() + 1);  // + root
  EXPECT_EQ(collapsed->origin.size(), collapsed->graph.size());
  EXPECT_EQ(collapsed->origin[0], f.schema.root());
  // Every collapsed element keeps its representative's label and card.
  for (ElementId c = 1; c < collapsed->graph.size(); ++c) {
    ElementId orig = collapsed->origin[c];
    EXPECT_EQ(collapsed->graph.label(c), f.schema.label(orig));
    EXPECT_TRUE(collapsed->graph.type(c).abstract_);
    EXPECT_EQ(collapsed->annotations.card(c), f.ann.card(orig));
  }
}

TEST(MultilevelTest, TwoLevelRepresentativesCompose) {
  Fixture f;
  auto levels = SummarizeMultiLevel(f.schema, f.ann, {4, 2});
  ASSERT_TRUE(levels.ok()) << levels.status().ToString();
  ASSERT_EQ(levels->size(), 2u);
  const SummaryLevel& fine = (*levels)[0];
  const SummaryLevel& coarse = (*levels)[1];
  EXPECT_EQ(fine.abstract_elements.size(), 4u);
  EXPECT_EQ(coarse.abstract_elements.size(), 2u);
  // Coarse abstract elements are a subset of fine ones (representatives
  // keep their identity across levels).
  for (ElementId top : coarse.abstract_elements) {
    EXPECT_NE(std::find(fine.abstract_elements.begin(),
                        fine.abstract_elements.end(), top),
              fine.abstract_elements.end());
  }
  // Composition: every element's coarse representative is the coarse
  // representative of its fine representative.
  for (ElementId e = 0; e < f.schema.size(); ++e) {
    if (e == f.schema.root()) continue;
    ElementId fine_rep = fine.representative[e];
    EXPECT_EQ(coarse.representative[e], coarse.representative[fine_rep]);
  }
  // Coarse level is total.
  for (ElementId e = 0; e < f.schema.size(); ++e) {
    if (e == f.schema.root()) continue;
    EXPECT_NE(std::find(coarse.abstract_elements.begin(),
                        coarse.abstract_elements.end(),
                        coarse.representative[e]),
              coarse.abstract_elements.end());
  }
}

TEST(MultilevelTest, RejectsNonDecreasingSizes) {
  Fixture f;
  EXPECT_FALSE(SummarizeMultiLevel(f.schema, f.ann, {}).ok());
  EXPECT_FALSE(SummarizeMultiLevel(f.schema, f.ann, {3, 3}).ok());
  EXPECT_FALSE(SummarizeMultiLevel(f.schema, f.ann, {2, 4}).ok());
}

TEST(MultilevelTest, ExpandAbstractElement) {
  Fixture f;
  SchemaSummary summary = *Summarize(f.schema, f.ann, 3);
  ElementId top = summary.abstract_elements.front();
  auto view = ExpandAbstractElement(summary, top);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->abstract_elements.size(), summary.size() - 1);
  // Every member of the expanded group is represented by `top`.
  for (ElementId e : view->expanded_members) {
    EXPECT_EQ(summary.representative[e], top);
  }
  // Not abstract -> error.
  ElementId non_abstract = kInvalidElement;
  for (ElementId e = 1; e < f.schema.size(); ++e) {
    if (!summary.IsAbstract(e)) {
      non_abstract = e;
      break;
    }
  }
  ASSERT_NE(non_abstract, kInvalidElement);
  EXPECT_FALSE(ExpandAbstractElement(summary, non_abstract).ok());
}

TEST(MultilevelTest, CollapsedGraphIsSummarizableAgain) {
  Fixture f;
  SchemaSummary summary = *Summarize(f.schema, f.ann, 4);
  auto collapsed = CollapseSummary(f.schema, f.ann, summary);
  ASSERT_TRUE(collapsed.ok());
  auto second = Summarize(collapsed->graph, collapsed->annotations, 2);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(ValidateSummary(*second).ok());
}

}  // namespace
}  // namespace ssum
