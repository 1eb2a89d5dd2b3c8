#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/summarize.h"
#include "datasets/registry.h"
#include "query/discovery.h"
#include "schema/schema_builder.h"
#include "stats/annotate.h"

namespace ssum {
namespace {

/// A small fixed tree where traversal costs can be counted by hand:
///
///   root
///   ├── a        (children in schema order: a1, a2)
///   │   ├── a1
///   │   └── a2
///   ├── b
///   │   ├── b1
///   │   └── b2
///   └── c
struct Tree {
  // Ids precede `schema`: Make() fills them during schema construction.
  ElementId a = 0, a1 = 0, a2 = 0, b = 0, b1 = 0, b2 = 0, c = 0;
  SchemaGraph schema;

  Tree() : schema(Make(this)) {}

  static SchemaGraph Make(Tree* t) {
    SchemaBuilder builder("root");
    t->a = builder.SetRcd(builder.Root(), "a");
    t->a1 = builder.Simple(t->a, "a1");
    t->a2 = builder.Simple(t->a, "a2");
    t->b = builder.SetRcd(builder.Root(), "b");
    t->b1 = builder.Simple(t->b, "b1");
    t->b2 = builder.Simple(t->b, "b2");
    t->c = builder.SetRcd(builder.Root(), "c");
    return std::move(builder).Build();
  }
};

QueryIntention Q(std::vector<ElementId> elems) {
  return {"q", std::move(elems)};
}

TEST(DiscoveryTest, DepthFirstHandCounted) {
  Tree t;
  DiscoveryOracle oracle(t.schema);
  // DFS pre-order after root: a, a1, a2, b, b1, b2, c.
  // Looking for b1: visits a(1) a1(2) a2(3) b(4) then b1 (free).
  DiscoveryResult r =
      Discover(oracle, Q({t.b1}), TraversalStrategy::kDepthFirst);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.cost, 4u);
  EXPECT_EQ(r.visited, 5u);
  // Looking for a1 stops immediately after a.
  r = Discover(oracle, Q({t.a1}), TraversalStrategy::kDepthFirst);
  EXPECT_EQ(r.cost, 1u);
}

TEST(DiscoveryTest, BreadthFirstHandCounted) {
  Tree t;
  DiscoveryOracle oracle(t.schema);
  // BFS order: a, b, c, a1, a2, b1, b2.
  DiscoveryResult r =
      Discover(oracle, Q({t.b1}), TraversalStrategy::kBreadthFirst);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.cost, 5u);  // a b c a1 a2 charged, b1 free
  r = Discover(oracle, Q({t.c}), TraversalStrategy::kBreadthFirst);
  EXPECT_EQ(r.cost, 2u);  // a, b charged
}

TEST(DiscoveryTest, BestFirstSkipsIrrelevantSubtrees) {
  Tree t;
  DiscoveryOracle oracle(t.schema);
  // Looking for b1: root's children examined in order: a (charged, oracle
  // says no), b (charged, descend), then b's children: b1 found (free).
  DiscoveryResult r =
      Discover(oracle, Q({t.b1}), TraversalStrategy::kBestFirst);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.cost, 2u);
  // Looking for {a2, c}: a charged, a1 charged, a2 free; b charged (no
  // interest); c free. Total 3.
  r = Discover(oracle, Q({t.a2, t.c}), TraversalStrategy::kBestFirst);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.cost, 3u);
}

TEST(DiscoveryTest, IntentionElementOnPathIsFree) {
  Tree t;
  DiscoveryOracle oracle(t.schema);
  // Looking for {a, a2}: a free (in intention), a1 charged, a2 free.
  DiscoveryResult r =
      Discover(oracle, Q({t.a, t.a2}), TraversalStrategy::kBestFirst);
  EXPECT_EQ(r.cost, 1u);
}

TEST(DiscoveryTest, BestFirstNeverWorseThanScans) {
  Tree t;
  DiscoveryOracle oracle(t.schema);
  for (ElementId target = 1; target < t.schema.size(); ++target) {
    uint64_t best =
        Discover(oracle, Q({target}), TraversalStrategy::kBestFirst).cost;
    uint64_t df =
        Discover(oracle, Q({target}), TraversalStrategy::kDepthFirst).cost;
    uint64_t bf =
        Discover(oracle, Q({target}), TraversalStrategy::kBreadthFirst).cost;
    EXPECT_LE(best, df);
    EXPECT_LE(best, bf);
  }
}

TEST(DiscoveryTest, ValueLinksEnableRelationalTraversal) {
  // Relational shape: root -> {t1, t2}, t1 --V--> t2; columns below each.
  SchemaBuilder b("cat");
  ElementId t1 = b.SetRcd(b.Root(), "t1");
  ElementId c1 = b.Simple(t1, "c1");
  ElementId t2 = b.SetRcd(b.Root(), "t2");
  ElementId c2 = b.Simple(t2, "c2");
  b.Link(t1, t2);
  SchemaGraph schema = std::move(b).Build();
  DiscoveryOracle oracle(schema);
  // Successors of t1 include t2 through the value link.
  const auto& succ = oracle.successors(t1);
  EXPECT_NE(std::find(succ.begin(), succ.end(), t2), succ.end());
  EXPECT_TRUE(oracle.Reaches(t1, c2));
  DiscoveryResult r = Discover(oracle, Q({c1, c2}),
                               TraversalStrategy::kBestFirst);
  EXPECT_TRUE(r.complete);
}

TEST(DiscoveryTest, CyclicValueLinksTerminate) {
  SchemaBuilder b("r");
  ElementId x = b.SetRcd(b.Root(), "x");
  ElementId y = b.SetRcd(b.Root(), "y");
  ElementId leaf = b.Simple(y, "leaf");
  b.Link(x, y);
  b.Link(y, x);
  SchemaGraph schema = std::move(b).Build();
  DiscoveryOracle oracle(schema);
  for (TraversalStrategy s :
       {TraversalStrategy::kDepthFirst, TraversalStrategy::kBreadthFirst,
        TraversalStrategy::kBestFirst}) {
    DiscoveryResult r = Discover(oracle, Q({leaf}), s);
    EXPECT_TRUE(r.complete) << TraversalStrategyName(s);
  }
}

// --- with summary -----------------------------------------------------------

struct Wide {
  // Id vectors precede `schema`: Make() fills them during construction.
  std::vector<ElementId> entities;  // 6 entities, 3 leaves each
  std::vector<ElementId> leaves;
  SchemaGraph schema;
  Annotations ann;

  Wide() : schema(Make(this)), ann(schema) {
    ann.set_card(schema.root(), 1);
    for (ElementId e = 1; e < schema.size(); ++e) {
      ann.set_card(e, 100);
      ann.set_structural_count(schema.parent_link(e), 100);
    }
  }

  static SchemaGraph Make(Wide* w) {
    SchemaBuilder b("db");
    for (int i = 0; i < 6; ++i) {
      ElementId e = b.SetRcd(b.Root(), "ent" + std::to_string(i));
      w->entities.push_back(e);
      for (int j = 0; j < 3; ++j) {
        w->leaves.push_back(
            b.Simple(e, "leaf" + std::to_string(i) + std::to_string(j)));
      }
    }
    return std::move(b).Build();
  }
};

TEST(DiscoveryWithSummaryTest, FindsAllIntentionElements) {
  Wide w;
  SchemaSummary summary = *Summarize(w.schema, w.ann, 3);
  DiscoveryOracle oracle(w.schema);
  for (ElementId target : w.leaves) {
    DiscoveryResult r = DiscoverWithSummary(oracle, summary, Q({target}));
    EXPECT_TRUE(r.complete) << w.schema.PathOf(target);
  }
  // Multi-element intention spanning groups.
  DiscoveryResult r = DiscoverWithSummary(
      oracle, summary, Q({w.leaves[0], w.leaves[8], w.leaves[16]}));
  EXPECT_TRUE(r.complete);
}

TEST(DiscoveryWithSummaryTest, AbstractVisitsAreCharged) {
  Wide w;
  SchemaSummary summary = *Summarize(w.schema, w.ann, 3);
  DiscoveryOracle oracle(w.schema);
  DiscoveryResult r = DiscoverWithSummary(oracle, summary, Q({w.leaves[0]}));
  // At least one abstract element must be visited (cost >= 1).
  EXPECT_GE(r.cost, 1u);
}

TEST(DiscoveryWithSummaryTest, MismatchedSchemaFailsFast) {
  Wide w;
  Tree t;
  SchemaSummary summary = *Summarize(w.schema, w.ann, 3);
  DiscoveryOracle oracle(w.schema);
  (void)t;
  // Average helpers with an empty workload return 0.
  Workload empty;
  EXPECT_DOUBLE_EQ(AverageDiscoveryCost(oracle, empty,
                                        TraversalStrategy::kBestFirst),
                   0.0);
  EXPECT_DOUBLE_EQ(AverageDiscoveryCostWithSummary(oracle, summary, empty),
                   0.0);
}

TEST(DiscoveryWithSummaryTest, BoundedOverheadOnUniformWorkloads) {
  // This workload is deliberately anti-focused (uniform over all entities,
  // which are symmetric), so the summary cannot exploit importance skew —
  // the paper's savings come from real queries concentrating on important
  // elements. The summary must still stay within a small constant factor.
  Wide w;
  SchemaSummary summary = *Summarize(w.schema, w.ann, 3);
  DiscoveryOracle oracle(w.schema);
  Workload load;
  load.name = "leaves";
  for (size_t i = 0; i < w.leaves.size(); i += 2) {
    load.queries.push_back(Q({w.leaves[i], w.leaves[(i + 1) % w.leaves.size()]}));
  }
  double without =
      AverageDiscoveryCost(oracle, load, TraversalStrategy::kBestFirst);
  double with = AverageDiscoveryCostWithSummary(oracle, summary, load);
  EXPECT_LE(with, without * 2.0);
}

TEST(DiscoveryWithSummaryTest, WorkloadCostsAreThreadCountInvariantOnXMark) {
  // Queries are evaluated in parallel into per-query slots and summed in
  // query order, so the averages are bit-identical at every thread count.
  auto bundle = LoadDataset(DatasetKind::kXMark, 0.05);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  ASSERT_FALSE(bundle->workload.queries.empty());
  auto summary = Summarize(bundle->schema, bundle->annotations,
                           bundle->paper_summary_size);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  DiscoveryOracle oracle(bundle->schema);
  ParallelOptions serial, parallel;
  serial.threads = 1;
  parallel.threads = 8;
  for (TraversalStrategy s :
       {TraversalStrategy::kDepthFirst, TraversalStrategy::kBreadthFirst,
        TraversalStrategy::kBestFirst}) {
    EXPECT_EQ(AverageDiscoveryCost(oracle, bundle->workload, s, serial),
              AverageDiscoveryCost(oracle, bundle->workload, s, parallel))
        << TraversalStrategyName(s);
  }
  EXPECT_EQ(AverageDiscoveryCostWithSummary(oracle, *summary,
                                            bundle->workload, serial),
            AverageDiscoveryCostWithSummary(oracle, *summary,
                                            bundle->workload, parallel));
  // Per query: a one-query workload evaluated on the pool costs exactly what
  // the serial simulator charges for that query.
  for (const QueryIntention& q : bundle->workload.queries) {
    Workload one;
    one.queries = {q};
    EXPECT_EQ(AverageDiscoveryCost(oracle, one, TraversalStrategy::kBestFirst,
                                   parallel),
              static_cast<double>(
                  Discover(oracle, q, TraversalStrategy::kBestFirst).cost))
        << q.name;
  }
}

}  // namespace
}  // namespace ssum
