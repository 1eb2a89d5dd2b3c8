// Tests for synthetic workload generation, a library extension beyond the
// paper's core.

#include <gtest/gtest.h>

#include <set>

#include "core/summarize.h"
#include "datasets/mimi.h"
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

}  // namespace
}  // namespace ssum
