// Tests for the library extensions beyond the paper's core: synthetic
// workload generation, summary diffing, and interactive exploration.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/summarize.h"
#include "datasets/mimi.h"
#include "eval/summary_diff.h"
#include "query/exploration.h"
#include "query/generate_workload.h"
#include "stats/annotate.h"

namespace ssum {
namespace {

struct Fixture {
  MimiDataset ds;
  Annotations ann;
  SummarizerContext context;

  Fixture()
      : ds(Small()),
        ann(*AnnotateSchema(*ds.MakeStream())),
        context(SummarizerContext::Make(ds.schema(), ann).ValueOrDie()) {}

  static MimiParams Small() {
    MimiParams p;
    p.scale = 0.003;
    return p;
  }
};

// --- GenerateWorkload --------------------------------------------------------

TEST(GenerateWorkloadTest, ShapeMatchesOptions) {
  Fixture f;
  WorkloadGenOptions opts;
  opts.num_queries = 40;
  opts.mean_size = 3.0;
  Workload w = GenerateWorkload(f.ds.schema(),
                                f.context.importance().importance, opts);
  EXPECT_EQ(w.size(), 40u);
  EXPECT_NEAR(w.AverageIntentionSize(), 3.0, 1.2);
  for (const QueryIntention& q : w.queries) {
    EXPECT_GE(q.size(), 1u);
    std::set<ElementId> seen;
    for (ElementId e : q.elements) {
      EXPECT_NE(e, f.ds.schema().root());
      EXPECT_LT(e, f.ds.schema().size());
      EXPECT_TRUE(seen.insert(e).second) << "duplicate intention element";
    }
  }
}

TEST(GenerateWorkloadTest, FocusConcentratesOnImportantElements) {
  Fixture f;
  const auto& importance = f.context.importance().importance;
  auto mass_on_top = [&](double focus) {
    WorkloadGenOptions opts;
    opts.focus = focus;
    opts.num_queries = 300;
    opts.locality = 0.0;  // isolate the anchor distribution
    opts.mean_size = 1.0;
    Workload w = GenerateWorkload(f.ds.schema(), importance, opts);
    // Fraction of anchors landing in the top decile by importance.
    std::vector<ElementId> ranked = f.context.importance().Ranked();
    std::set<ElementId> top(ranked.begin(),
                            ranked.begin() + ranked.size() / 10);
    size_t hits = 0, total = 0;
    for (const QueryIntention& q : w.queries) {
      for (ElementId e : q.elements) {
        ++total;
        if (top.count(e)) ++hits;
      }
    }
    return static_cast<double>(hits) / static_cast<double>(total);
  };
  double uniform = mass_on_top(0.0);
  double focused = mass_on_top(1.0);
  EXPECT_GT(focused, uniform + 0.2);
}

TEST(GenerateWorkloadTest, DeterministicPerSeed) {
  Fixture f;
  WorkloadGenOptions opts;
  Workload a = GenerateWorkload(f.ds.schema(),
                                f.context.importance().importance, opts);
  Workload b = GenerateWorkload(f.ds.schema(),
                                f.context.importance().importance, opts);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.queries[i].elements, b.queries[i].elements);
  }
  opts.seed = 1234;
  Workload c = GenerateWorkload(f.ds.schema(),
                                f.context.importance().importance, opts);
  bool any_diff = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.queries[i].elements != c.queries[i].elements) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// --- DiffSummaries -------------------------------------------------------------

TEST(SummaryDiffTest, IdenticalSummaries) {
  Fixture f;
  SchemaSummary s = *Summarize(f.context, 6);
  SummaryDiff diff = DiffSummaries(s, s);
  EXPECT_TRUE(diff.Unchanged());
  EXPECT_DOUBLE_EQ(diff.agreement, 1.0);
  EXPECT_NE(diff.Report(f.ds.schema()).find("identical"), std::string::npos);
}

TEST(SummaryDiffTest, DetectsAddedRemovedAndMoved) {
  Fixture f;
  SchemaSummary small = *Summarize(f.context, 5);
  SchemaSummary large = *Summarize(f.context, 8);
  SummaryDiff diff = DiffSummaries(small, large);
  // Importance-ordered selections are nested here, so growing the summary
  // only adds abstract elements (and moves members into the new groups).
  EXPECT_FALSE(diff.added_abstract.empty());
  EXPECT_LT(diff.agreement, 1.0);
  EXPECT_GT(diff.agreement, 0.0);
  // Every element that moved now belongs to one of the added groups.
  for (ElementId e : diff.moved) {
    ElementId new_rep = large.representative[e];
    bool into_added =
        std::find(diff.added_abstract.begin(), diff.added_abstract.end(),
                  new_rep) != diff.added_abstract.end();
    EXPECT_TRUE(into_added || new_rep == e) << f.ds.schema().PathOf(e);
  }
  std::string report = diff.Report(f.ds.schema());
  EXPECT_NE(report.find("+ "), std::string::npos);
}

// --- ExplorationSession ---------------------------------------------------------

TEST(ExplorationTest, ExpandRevealsGroupMembers) {
  Fixture f;
  SchemaSummary summary = *Summarize(f.context, 6);
  ExplorationSession session(f.ds.schema(), summary);
  size_t collapsed_count = session.VisibleCount();
  EXPECT_EQ(collapsed_count, summary.size() + 1);  // + root

  ElementId top = summary.abstract_elements.front();
  ASSERT_TRUE(session.Expand(top).ok());
  EXPECT_TRUE(session.IsExpanded(top));
  EXPECT_EQ(session.VisibleCount(),
            collapsed_count - 1 + summary.Group(top).size());
  // All group members visible now.
  std::vector<ElementId> visible = session.VisibleElements();
  for (ElementId m : summary.Group(top)) {
    EXPECT_NE(std::find(visible.begin(), visible.end(), m), visible.end());
  }
  ASSERT_TRUE(session.Collapse(top).ok());
  EXPECT_EQ(session.VisibleCount(), collapsed_count);
}

TEST(ExplorationTest, ErrorsOnBadOperations) {
  Fixture f;
  SchemaSummary summary = *Summarize(f.context, 6);
  ExplorationSession session(f.ds.schema(), summary);
  ElementId top = summary.abstract_elements.front();
  ElementId non_abstract = kInvalidElement;
  for (ElementId e = 1; e < f.ds.schema().size(); ++e) {
    if (!summary.IsAbstract(e)) {
      non_abstract = e;
      break;
    }
  }
  EXPECT_FALSE(session.Expand(non_abstract).ok());
  EXPECT_FALSE(session.Collapse(top).ok());  // not expanded yet
  ASSERT_TRUE(session.Expand(top).ok());
  EXPECT_TRUE(session.Expand(top).IsFailedPrecondition());  // double expand
}

TEST(ExplorationTest, LinksFollowExpansionState) {
  Fixture f;
  SchemaSummary summary = *Summarize(f.context, 6);
  ExplorationSession session(f.ds.schema(), summary);
  auto links_collapsed = session.VisibleLinks();
  // Collapsed view: every endpoint is the root or an abstract element.
  for (const auto& l : links_collapsed) {
    EXPECT_TRUE(l.from == f.ds.schema().root() || summary.IsAbstract(l.from));
    EXPECT_TRUE(l.to == f.ds.schema().root() || summary.IsAbstract(l.to));
  }
  ElementId top = summary.abstract_elements.front();
  ASSERT_TRUE(session.Expand(top).ok());
  auto links_expanded = session.VisibleLinks();
  EXPECT_GT(links_expanded.size(), links_collapsed.size());
  // No link may touch a hidden element.
  std::vector<ElementId> visible = session.VisibleElements();
  std::set<ElementId> vis(visible.begin(), visible.end());
  for (const auto& l : links_expanded) {
    EXPECT_TRUE(vis.count(l.from)) << f.ds.schema().PathOf(l.from);
    EXPECT_TRUE(vis.count(l.to)) << f.ds.schema().PathOf(l.to);
  }
}

TEST(ExplorationTest, DotRendersClusters) {
  Fixture f;
  SchemaSummary summary = *Summarize(f.context, 6);
  ExplorationSession session(f.ds.schema(), summary);
  ElementId top = summary.abstract_elements.front();
  ASSERT_TRUE(session.Expand(top).ok());
  std::string dot = session.ToDot("view");
  EXPECT_NE(dot.find("digraph \"view\""), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_0"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

}  // namespace
}  // namespace ssum
