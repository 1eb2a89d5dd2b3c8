#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/random.h"
#include "core/dominance.h"
#include "core/metrics.h"
#include "core/summarize.h"
#include "datasets/registry.h"
#include "datasets/scenario.h"
#include "schema/schema_builder.h"
#include "stats/annotate.h"

namespace ssum {
namespace {

/// person -> profile -> interest* with one extra leaf (@category) under
/// interest — modeled after the paper's Figure 5 discussion.
struct Fixture {
  // Ids precede `schema`: Make() fills them during schema construction.
  ElementId person = 0, profile = 0, interest = 0, category = 0;
  SchemaGraph schema;
  Annotations ann;

  Fixture() : schema(Make(this)), ann(schema) {
    ann.set_card(schema.root(), 1);
    SetCard(person, 100);
    SetCard(profile, 100);    // RC(person->profile) = 1
    SetCard(interest, 400);   // RC(profile->interest) = 4
    SetCard(category, 400);   // RC(interest->@category) = 1
  }

  void SetCard(ElementId e, uint64_t c) {
    ann.set_card(e, c);
    ann.set_structural_count(schema.parent_link(e), c);
  }

  static SchemaGraph Make(Fixture* f) {
    SchemaBuilder b("root");
    f->person = b.SetRcd(b.Root(), "person");
    f->profile = b.Rcd(f->person, "profile");
    f->interest = b.SetRcd(f->profile, "interest");
    f->category = b.Attr(f->interest, "category");
    return std::move(b).Build();
  }
};

TEST(DominanceTest, AncestorDominatesTightlyCoupledLeaf) {
  Fixture f;
  EdgeMetrics metrics = EdgeMetrics::Compute(f.schema, f.ann);
  CoverageMatrix cov = CoverageMatrix::Compute(f.schema, f.ann, metrics);
  // @category's coverage profile is a strict subset of interest's:
  // every element @category covers well is covered at least as well by
  // interest, so interest dominates it (Theorem 1).
  EXPECT_TRUE(Dominates(f.schema, f.ann, cov, f.interest, f.category));
  // The much weaker leaf cannot dominate its ancestor.
  EXPECT_FALSE(Dominates(f.schema, f.ann, cov, f.category, f.interest));
  EXPECT_FALSE(Dominates(f.schema, f.ann, cov, f.interest, f.interest));
}

TEST(DominanceTest, ReplacementNeverLowersCoverage) {
  // The defining property of dominance: for any summary containing only the
  // dominated element, swapping in the dominator keeps or raises summary
  // coverage. Verified over all singleton summaries.
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  const CoverageMatrix& cov = context->coverage();
  for (ElementId e1 = 1; e1 < f.schema.size(); ++e1) {
    for (ElementId e2 = 1; e2 < f.schema.size(); ++e2) {
      if (e1 == e2) continue;
      if (!Dominates(f.schema, f.ann, cov, e1, e2)) continue;
      double with_dominated =
          CoverageOfSet(f.schema, context->affinity(), cov, {e2});
      double with_dominator =
          CoverageOfSet(f.schema, context->affinity(), cov, {e1});
      EXPECT_GE(with_dominator + 1e-9, with_dominated)
          << f.schema.label(e1) << " should dominate " << f.schema.label(e2);
    }
  }
}

TEST(DominanceTest, ExtendedAncestorsFollowRefereeLinks) {
  SchemaBuilder b("root");
  ElementId a = b.SetRcd(b.Root(), "a");
  ElementId b_elem = b.SetRcd(b.Root(), "b");
  ElementId c = b.SetRcd(b_elem, "c");
  b.Link(c, a);  // c references a: a acts as a parent of c
  SchemaGraph schema = std::move(b).Build();
  std::vector<ElementId> anc = ExtendedAncestors(schema, c);
  EXPECT_NE(std::find(anc.begin(), anc.end(), a), anc.end());
  EXPECT_NE(std::find(anc.begin(), anc.end(), b_elem), anc.end());
  EXPECT_NE(std::find(anc.begin(), anc.end(), schema.root()), anc.end());
  // a's ancestors do not include c (direction matters).
  std::vector<ElementId> anc_a = ExtendedAncestors(schema, a);
  EXPECT_EQ(std::find(anc_a.begin(), anc_a.end(), c), anc_a.end());
}

TEST(DominanceTest, ComputeDominanceProducesConsistentSets) {
  Fixture f;
  EdgeMetrics metrics = EdgeMetrics::Compute(f.schema, f.ann);
  CoverageMatrix cov = CoverageMatrix::Compute(f.schema, f.ann, metrics);
  DominanceResult result = ComputeDominance(f.schema, f.ann, cov);
  // Flags match pairs.
  std::vector<bool> expect(f.schema.size(), false);
  for (const DominancePair& p : result.pairs) {
    expect[p.dominated] = true;
    EXPECT_NE(p.dominator, p.dominated);
  }
  EXPECT_EQ(expect, result.dominated);
  // Candidates = non-dominated non-root elements.
  for (ElementId e : result.candidates) {
    EXPECT_NE(e, f.schema.root());
    EXPECT_FALSE(result.dominated[e]);
  }
  // @category is ancestor-dominated, so it must be pruned.
  EXPECT_TRUE(result.dominated[f.category]);
}

TEST(DominanceTest, CyclicValueLinksTerminate) {
  SchemaBuilder b("root");
  ElementId x = b.SetRcd(b.Root(), "x");
  ElementId y = b.SetRcd(b.Root(), "y");
  b.Link(x, y);
  b.Link(y, x);  // referee cycle
  SchemaGraph schema = std::move(b).Build();
  std::vector<ElementId> anc = ExtendedAncestors(schema, x);
  EXPECT_LE(anc.size(), schema.size());
  Annotations ann = Annotations::Uniform(schema);
  EdgeMetrics metrics = EdgeMetrics::Compute(schema, ann);
  CoverageMatrix cov = CoverageMatrix::Compute(schema, ann, metrics);
  DominanceResult result = ComputeDominance(schema, ann, cov);
  (void)result;  // must terminate
}

/// Figure 6's pair loop written the obvious way: every extended ancestor
/// tested through the public Dominates, in element order.
DominanceResult NaiveDominance(const SchemaGraph& graph,
                               const Annotations& annotations,
                               const CoverageMatrix& coverage) {
  DominanceResult result;
  result.dominated.assign(graph.size(), false);
  for (ElementId e = 0; e < graph.size(); ++e) {
    if (e == graph.root()) continue;
    for (ElementId anc : ExtendedAncestors(graph, e)) {
      if (anc == graph.root()) continue;
      if (Dominates(graph, annotations, coverage, anc, e)) {
        result.pairs.push_back({anc, e});
        result.dominated[e] = true;
      }
    }
  }
  for (ElementId e = 0; e < graph.size(); ++e) {
    if (e != graph.root() && !result.dominated[e]) {
      result.candidates.push_back(e);
    }
  }
  return result;
}

Result<DatasetBundle> LoadEquivalenceInput(const std::string& name) {
  if (name == "XMark") return LoadDataset(DatasetKind::kXMark, 1.0);
  return LoadScenarioFile(std::string(SSUM_SCENARIO_DIR) + "/quick.scn");
}

/// TryComputeDominance at 1 and 4 threads against the naive loop: the same
/// pairs in the same order, the same flags and candidates. Returns the naive
/// result for fixture-specific checks.
DominanceResult ExpectMatchesNaive(const SchemaGraph& schema,
                                   const Annotations& ann,
                                   const CoverageMatrix& cov) {
  DominanceResult naive = NaiveDominance(schema, ann, cov);
  for (uint32_t threads : {1u, 4u}) {
    ParallelOptions parallel;
    parallel.threads = threads;
    auto result = TryComputeDominance(schema, ann, cov, parallel);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) break;
    EXPECT_EQ(result->pairs.size(), naive.pairs.size()) << threads;
    for (size_t i = 0; i < std::min(result->pairs.size(), naive.pairs.size());
         ++i) {
      EXPECT_EQ(result->pairs[i].dominator, naive.pairs[i].dominator) << i;
      EXPECT_EQ(result->pairs[i].dominated, naive.pairs[i].dominated) << i;
    }
    EXPECT_EQ(result->dominated, naive.dominated) << threads;
    EXPECT_EQ(result->candidates, naive.candidates) << threads;
  }
  return naive;
}

/// The hoisted e_c and the parallel per-element scan must reproduce the
/// naive loop exactly: the same pairs in the same order, at every thread
/// count.
class DominanceEquivalenceTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(DominanceEquivalenceTest, MatchesNaivePairLoop) {
  auto bundle = LoadEquivalenceInput(GetParam());
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  const SchemaGraph& schema = bundle->schema;
  const Annotations& ann = bundle->annotations;
  EdgeMetrics metrics = EdgeMetrics::Compute(schema, ann);
  CoverageMatrix cov = CoverageMatrix::Compute(schema, ann, metrics);
  const DominanceResult naive = ExpectMatchesNaive(schema, ann, cov);
  EXPECT_FALSE(naive.pairs.empty());
  const DominanceResult wrapped = ComputeDominance(schema, ann, cov);
  EXPECT_EQ(wrapped.candidates, naive.candidates);
}

INSTANTIATE_TEST_SUITE_P(Inputs, DominanceEquivalenceTest,
                         ::testing::Values("XMark", "QuickScenario"),
                         [](const auto& info) { return info.param; });

/// Crafted inputs for the grouped Theorem 1 kernel: a chain root -> a0 ->
/// a1 -> ... -> a17, so chain element a_k has k extended ancestors besides
/// the root (every group width, and two full groups at a16 and a17), plus
/// `leaves` attributes under the root. The coverage matrix and the
/// cardinalities are set directly, not computed.
struct ChainFixture {
  static constexpr size_t kChain = 18;
  std::vector<ElementId> chain;
  std::vector<ElementId> leaves;
  SchemaGraph schema;
  Annotations ann;
  SquareMatrix matrix;

  explicit ChainFixture(size_t num_leaves)
      : schema(Make(this, num_leaves)),
        ann(schema),
        matrix(schema.size(), 0.0) {}

  static SchemaGraph Make(ChainFixture* f, size_t num_leaves) {
    SchemaBuilder b("root");
    ElementId parent = b.Root();
    for (size_t k = 0; k < kChain; ++k) {
      parent = b.Rcd(parent, std::string("a").append(std::to_string(k)));
      f->chain.push_back(parent);
    }
    for (size_t i = 0; i < num_leaves; ++i) {
      f->leaves.push_back(
          b.Attr(b.Root(), std::string("l").append(std::to_string(i))));
    }
    return std::move(b).Build();
  }

  CoverageMatrix Coverage() const { return CoverageMatrix::FromMatrix(matrix); }
};

TEST(DominanceKernelTest, EveryGroupWidthMatchesNaiveOnTiesZerosSubnormals) {
  // Few distinct values, so by2 == by1 is common; zeros and subnormals
  // among them. Rows a3 and a9 and leaf 2 are all zero.
  const double kValues[] = {0.0,
                            std::numeric_limits<double>::denorm_min(),
                            1e-310,
                            std::numeric_limits<double>::min(),
                            0.25,
                            0.5,
                            1.0,
                            1.0,
                            2.0,
                            3.0};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ChainFixture f(/*num_leaves=*/6);
    for (size_t k = 1; k < ChainFixture::kChain; ++k) {
      ASSERT_EQ(ExtendedAncestors(f.schema, f.chain[k]).size(), k + 1);
    }
    Rng rng(seed);
    const size_t n = f.schema.size();
    for (ElementId row = 0; row < n; ++row) {
      f.ann.set_card(row, rng.Next() % 24);
      if (row == f.chain[3] || row == f.chain[9] || row == f.leaves[2]) {
        continue;
      }
      for (ElementId col = 0; col < n; ++col) {
        f.matrix.Set(row, col, kValues[rng.Next() % std::size(kValues)]);
      }
    }
    const CoverageMatrix cov = f.Coverage();
    const DominanceResult naive = ExpectMatchesNaive(f.schema, f.ann, cov);
    // Both verdicts occur, so the comparison sees more than one kind.
    size_t tested = 0;
    for (ElementId e = 1; e < n; ++e) {
      tested += ExtendedAncestors(f.schema, e).size() - 1;
    }
    EXPECT_GT(naive.pairs.size(), 0u) << seed;
    EXPECT_LT(naive.pairs.size(), tested) << seed;
  }
}

TEST(DominanceKernelTest, TiesStayOutOfE) {
  // a0 -> a1 with rows that tie on a huge entry: C(a0->l0) = C(a1->l0) =
  // 2^54. E is {a0, l1} (0.5 vs 0 and 1 vs 0), so C2 - C1 = 1.5, above
  // Card(a0) - C(a1->a0) = 0.5, and the test fails. Were the tie in E, both
  // sums would absorb the 0.5 and the 1 (the spacing at 2^54 is 4), C2 - C1
  // would be 0 and a0 would wrongly dominate a1.
  ChainFixture f(/*num_leaves=*/2);
  const double big = std::ldexp(1.0, 54);
  const ElementId a0 = f.chain[0];
  const ElementId a1 = f.chain[1];
  f.ann.set_card(a0, 1);
  f.matrix.Set(a1, a0, 0.5);
  f.matrix.Set(a0, f.leaves[0], big);
  f.matrix.Set(a1, f.leaves[0], big);
  f.matrix.Set(a1, f.leaves[1], 1.0);
  ASSERT_EQ(big + 1.0 - big, 0.0);
  const CoverageMatrix cov = f.Coverage();
  EXPECT_FALSE(Dominates(f.schema, f.ann, cov, a0, a1));
  const DominanceResult naive = ExpectMatchesNaive(f.schema, f.ann, cov);
  EXPECT_FALSE(naive.dominated[a1]);
}

TEST(DominanceKernelTest, SumsRunInElementOrder) {
  // Row a17 holds 2^54 at l0 and then 1.0 at l1..l100, with zero rows for
  // its 17 ancestors. Summed in element order every 1.0 is absorbed (the
  // spacing at 2^54 is 4), so C2 = 2^54 exactly; in any order that adds
  // some 1.0s together first, C2 ends near 2^54 + 100. Card(a_k) =
  // 2^54 + 64 puts the threshold between the two, so only element order
  // makes every a_k dominate a17. Row a16 holds the same entries with the
  // 1.0s first: its C2 is 2^54 + 100 and no ancestor dominates it.
  ChainFixture f(/*num_leaves=*/101);
  const double big = std::ldexp(1.0, 54);
  const ElementId a16 = f.chain[16];
  const ElementId a17 = f.chain[17];
  for (ElementId a : f.chain) f.ann.set_card(a, (uint64_t{1} << 54) + 64);
  f.matrix.Set(a17, f.leaves[0], big);
  f.matrix.Set(a16, f.leaves[100], big);
  for (size_t i = 1; i <= 100; ++i) {
    f.matrix.Set(a17, f.leaves[i], 1.0);
    f.matrix.Set(a16, f.leaves[i - 1], 1.0);
  }
  double in_order = big;
  double ones_first = 0.0;
  for (int i = 0; i < 100; ++i) {
    in_order += 1.0;
    ones_first += 1.0;
  }
  ASSERT_EQ(in_order, big);
  ASSERT_EQ(ones_first + big, big + 100.0);
  const CoverageMatrix cov = f.Coverage();
  const DominanceResult naive = ExpectMatchesNaive(f.schema, f.ann, cov);
  size_t over_a17 = 0;
  size_t over_a16 = 0;
  for (const DominancePair& p : naive.pairs) {
    over_a17 += p.dominated == a17;
    over_a16 += p.dominated == a16;
  }
  EXPECT_EQ(over_a17, 17u);
  EXPECT_EQ(over_a16, 0u);
}

TEST(DominanceTest, ExpiredDeadlineIsReported) {
  Fixture f;
  EdgeMetrics metrics = EdgeMetrics::Compute(f.schema, f.ann);
  CoverageMatrix cov = CoverageMatrix::Compute(f.schema, f.ann, metrics);
  ParallelOptions parallel;
  parallel.deadline = Deadline::After(0);
  auto result = TryComputeDominance(f.schema, f.ann, cov, parallel);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();

  SummarizeOptions options;
  options.parallel.deadline = Deadline::After(0);
  auto context = SummarizerContext::Make(f.schema, f.ann, options);
  ASSERT_FALSE(context.ok());
  EXPECT_TRUE(context.status().IsDeadlineExceeded())
      << context.status().ToString();
}

}  // namespace
}  // namespace ssum
