#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "core/metrics.h"
#include "core/summarize.h"
#include "datasets/registry.h"
#include "datasets/scenario.h"
#include "schema/schema_builder.h"
#include "stats/annotate.h"

namespace ssum {
namespace {

/// Three top-level entities with unequal weight plus attached detail.
struct Fixture {
  // Ids precede `schema`: Make() fills them during schema construction.
  ElementId big = 0, big_leaf = 0, mid = 0, mid_leaf = 0, small = 0,
            small_leaf = 0;
  SchemaGraph schema;
  Annotations ann;

  Fixture() : schema(Make(this)), ann(schema) {
    ann.set_card(schema.root(), 1);
    Set(big, 1000);
    Set(big_leaf, 3000);
    Set(mid, 300);
    Set(mid_leaf, 600);
    Set(small, 10);
    Set(small_leaf, 10);
  }

  void Set(ElementId e, uint64_t c) {
    ann.set_card(e, c);
    ann.set_structural_count(schema.parent_link(e), c);
  }

  static SchemaGraph Make(Fixture* f) {
    SchemaBuilder b("db");
    f->big = b.SetRcd(b.Root(), "big");
    f->big_leaf = b.SetSimple(f->big, "big_leaf");
    f->mid = b.SetRcd(b.Root(), "mid");
    f->mid_leaf = b.SetSimple(f->mid, "mid_leaf");
    f->small = b.SetRcd(b.Root(), "small");
    f->small_leaf = b.Simple(f->small, "small_leaf");
    return std::move(b).Build();
  }
};

TEST(SummarizeTest, MaxImportancePicksTopK) {
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  auto selected = SelectMaxImportance(*context, 2);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->size(), 2u);
  const auto& imp = context->importance().importance;
  // Selected importances are >= any unselected non-root element's.
  double min_selected = 1e300;
  for (ElementId e : *selected) min_selected = std::min(min_selected, imp[e]);
  for (ElementId e = 1; e < f.schema.size(); ++e) {
    if (std::find(selected->begin(), selected->end(), e) != selected->end())
      continue;
    EXPECT_LE(imp[e], min_selected + 1e-9);
  }
  // Root never selected.
  EXPECT_EQ(std::find(selected->begin(), selected->end(), f.schema.root()),
            selected->end());
}

TEST(SummarizeTest, SizeValidation) {
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  EXPECT_FALSE(SelectMaxImportance(*context, 0).ok());
  EXPECT_FALSE(SelectMaxImportance(*context, f.schema.size()).ok());
  EXPECT_FALSE(SelectMaxCoverage(*context, 0).ok());
  EXPECT_FALSE(SelectBalanced(*context, 0).ok());
}

TEST(SummarizeTest, MaxCoverageTopsUpWhenCandidatesDoNotReachK) {
  Fixture f;
  // 7-element schema: for k=6 the non-dominated candidate set is smaller
  // than k, so the degenerate branch must top up with dominated elements —
  // cleanly, without touching the enumeration — in both modes.
  for (SummaryMode mode : {SummaryMode::kExact, SummaryMode::kApprox}) {
    SummarizeOptions opts;
    opts.mode = mode;
    auto context = SummarizerContext::Make(f.schema, f.ann, opts);
    ASSERT_TRUE(context.ok()) << context.status().ToString();
    ASSERT_LT(context->dominance().candidates.size(), 6u);
    auto selected = SelectMaxCoverage(*context, 6);
    ASSERT_TRUE(selected.ok()) << SummaryModeName(mode);
    EXPECT_EQ(selected->size(), 6u);
    std::vector<ElementId> sorted = *selected;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    EXPECT_EQ(std::find(selected->begin(), selected->end(), f.schema.root()),
              selected->end());
  }
}

TEST(SummarizeTest, ExactMaxCoverageBeatsOrMatchesGreedy) {
  Fixture f;
  SummarizeOptions exact_opts;
  exact_opts.max_coverage_enumeration_budget = 1000000;
  auto exact_ctx = SummarizerContext::Make(f.schema, f.ann, exact_opts);
  ASSERT_TRUE(exact_ctx.ok()) << exact_ctx.status().ToString();
  auto exact = SelectMaxCoverage(*exact_ctx, 2);
  ASSERT_TRUE(exact.ok());

  SummarizeOptions greedy_opts;
  greedy_opts.max_coverage_enumeration_budget = 0;  // force greedy
  auto greedy_ctx = SummarizerContext::Make(f.schema, f.ann, greedy_opts);
  ASSERT_TRUE(greedy_ctx.ok()) << greedy_ctx.status().ToString();
  auto greedy = SelectMaxCoverage(*greedy_ctx, 2);
  ASSERT_TRUE(greedy.ok());

  double exact_cov = CoverageOfSet(f.schema, exact_ctx->affinity(),
                                   exact_ctx->coverage(), *exact);
  double greedy_cov = CoverageOfSet(f.schema, greedy_ctx->affinity(),
                                    greedy_ctx->coverage(), *greedy);
  EXPECT_GE(exact_cov + 1e-9, greedy_cov);
}

TEST(SummarizeTest, MaxCoverageAvoidsDominatedElements) {
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  auto selected = SelectMaxCoverage(*context, 2);
  ASSERT_TRUE(selected.ok());
  const auto& dominated = context->dominance().dominated;
  // Candidates sufficed (the schema is larger than k), so no selected
  // element is dominated.
  if (context->dominance().candidates.size() >= 2) {
    for (ElementId e : *selected) EXPECT_FALSE(dominated[e]);
  }
}

TEST(SummarizeTest, BalancedSkipsDominatedDuplicates) {
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  auto selected = SelectBalanced(*context, 3);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->size(), 3u);
  // No selected element may be dominated by another selected element.
  const auto& pairs = context->dominance().pairs;
  for (ElementId a : *selected) {
    for (ElementId b : *selected) {
      bool dominates = false;
      for (const DominancePair& p : pairs) {
        if (p.dominator == a && p.dominated == b) dominates = true;
      }
      EXPECT_FALSE(dominates) << f.schema.label(a) << " dominates "
                              << f.schema.label(b) << " within the summary";
    }
  }
}

TEST(SummarizeTest, FacadeProducesValidSummaries) {
  Fixture f;
  for (Algorithm alg : {Algorithm::kMaxImportance, Algorithm::kMaxCoverage,
                        Algorithm::kBalanceSummary}) {
    auto summary = Summarize(f.schema, f.ann, 2, alg);
    ASSERT_TRUE(summary.ok()) << AlgorithmName(alg);
    EXPECT_TRUE(ValidateSummary(*summary).ok()) << AlgorithmName(alg);
    EXPECT_EQ(summary->size(), 2u);
  }
}

TEST(SummarizeTest, AlgorithmNames) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kMaxImportance), "MaxImportance");
  EXPECT_STREQ(AlgorithmName(Algorithm::kMaxCoverage), "MaxCoverage");
  EXPECT_STREQ(AlgorithmName(Algorithm::kBalanceSummary), "BalanceSummary");
}

TEST(SummarizeTest, DeterministicAcrossRuns) {
  Fixture f;
  auto s1 = Summarize(f.schema, f.ann, 3, Algorithm::kBalanceSummary);
  auto s2 = Summarize(f.schema, f.ann, 3, Algorithm::kBalanceSummary);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ(s1->abstract_elements, s2->abstract_elements);
  EXPECT_EQ(s1->representative, s2->representative);
}

/// Thread-count invariance on the real datasets: the sharded exact
/// enumeration and the parallel kernels must reproduce the serial selection
/// exactly, element for element.
class SummarizeParallelTest : public ::testing::TestWithParam<DatasetKind> {};

TEST_P(SummarizeParallelTest, ExactMaxCoverageSetIsThreadCountInvariant) {
  auto bundle = LoadDataset(GetParam(), 0.05);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  SummarizeOptions serial_opts;
  serial_opts.parallel.threads = 1;
  auto serial_ctx =
      SummarizerContext::Make(bundle->schema, bundle->annotations, serial_opts);
  ASSERT_TRUE(serial_ctx.ok()) << serial_ctx.status().ToString();
  SummarizeOptions parallel_opts;
  parallel_opts.parallel.threads = 8;
  auto parallel_ctx = SummarizerContext::Make(bundle->schema,
                                              bundle->annotations,
                                              parallel_opts);
  ASSERT_TRUE(parallel_ctx.ok()) << parallel_ctx.status().ToString();

  for (size_t k : {2u, 3u, 5u}) {
    auto serial = SelectMaxCoverage(*serial_ctx, k);
    auto parallel = SelectMaxCoverage(*parallel_ctx, k);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(*serial, *parallel) << "k=" << k;
  }
}

TEST_P(SummarizeParallelTest, SummarizeIsThreadCountInvariant) {
  auto bundle = LoadDataset(GetParam(), 0.05);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  for (Algorithm alg : {Algorithm::kMaxImportance, Algorithm::kMaxCoverage,
                        Algorithm::kBalanceSummary}) {
    SummarizeOptions serial_opts;
    serial_opts.parallel.threads = 1;
    SummarizeOptions parallel_opts;
    parallel_opts.parallel.threads = 8;
    auto serial = Summarize(bundle->schema, bundle->annotations, 8, alg,
                            serial_opts);
    auto parallel = Summarize(bundle->schema, bundle->annotations, 8, alg,
                              parallel_opts);
    ASSERT_TRUE(serial.ok()) << AlgorithmName(alg);
    ASSERT_TRUE(parallel.ok()) << AlgorithmName(alg);
    EXPECT_EQ(serial->abstract_elements, parallel->abstract_elements)
        << AlgorithmName(alg);
    EXPECT_EQ(serial->representative, parallel->representative)
        << AlgorithmName(alg);
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, SummarizeParallelTest,
                         ::testing::Values(DatasetKind::kXMark,
                                           DatasetKind::kTpch),
                         [](const auto& info) {
                           return info.param == DatasetKind::kXMark ? "XMark"
                                                                    : "Tpch";
                         });

TEST(SummarizeTest, ImportanceRatioGrowsWithK) {
  Fixture f;
  auto context = SummarizerContext::Make(f.schema, f.ann);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  double prev = 0;
  for (size_t k = 1; k <= 4; ++k) {
    auto summary = Summarize(*context, k, Algorithm::kMaxImportance);
    ASSERT_TRUE(summary.ok());
    double ratio = SummaryImportanceRatio(
        f.schema, context->importance().importance, *summary);
    EXPECT_GE(ratio + 1e-12, prev);
    prev = ratio;
  }
  EXPECT_LE(prev, 1.0 + 1e-12);
}

/// The greedy fallback exactly as Figure 6 reads: each round scores every
/// unused candidate with CoverageOfSet(chosen + {c}) and keeps the first
/// maximum. `*final_cov` receives the winning value of the last round.
std::vector<ElementId> ReferenceGreedy(const SummarizerContext& context,
                                       size_t k, double* final_cov) {
  const std::vector<ElementId>& cands = context.dominance().candidates;
  std::vector<ElementId> chosen;
  for (size_t round = 0; round < k; ++round) {
    ElementId best = kInvalidElement;
    double best_cov = -1.0;
    for (ElementId c : cands) {
      if (std::find(chosen.begin(), chosen.end(), c) != chosen.end()) continue;
      std::vector<ElementId> trial = chosen;
      trial.push_back(c);
      const double cov = CoverageOfSet(context.graph(), context.affinity(),
                                       context.coverage(), trial);
      if (cov > best_cov) {
        best_cov = cov;
        best = c;
      }
    }
    if (best == kInvalidElement) break;
    chosen.push_back(best);
    *final_cov = best_cov;
  }
  return chosen;
}

/// True when SelectMaxCoverage leaves exact enumeration for the greedy
/// fallback: more candidates than k and C(|CS|, k) above the budget.
bool TakesGreedyPath(const SummarizerContext& context, size_t k) {
  const uint64_t m = context.dominance().candidates.size();
  const uint64_t budget = context.options().max_coverage_enumeration_budget;
  if (m <= k) return false;
  uint64_t sets = 1;
  for (uint64_t i = 1; i <= k; ++i) {
    sets = sets * (m - k + i) / i;  // a binomial at every step
    if (sets > budget) return true;
  }
  return false;
}

struct GreedyInput {
  std::string name;
  size_t k;
};

Result<DatasetBundle> LoadGreedyInput(const std::string& name) {
  if (name == "XMark") return LoadDataset(DatasetKind::kXMark, 1.0);
  if (name == "MiMI") return LoadDataset(DatasetKind::kMimi, 1.0);
  return LoadScenarioFile(std::string(SSUM_SCENARIO_DIR) + "/quick.scn");
}

/// The running-best greedy must pick what the CoverageOfSet greedy picks,
/// in the same order, with the same coverage bit for bit, at every thread
/// count.
class GreedyEquivalenceTest : public ::testing::TestWithParam<GreedyInput> {};

TEST_P(GreedyEquivalenceTest, MatchesCoverageOfSetGreedy) {
  auto bundle = LoadGreedyInput(GetParam().name);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  const size_t k = GetParam().k;
  std::vector<ElementId> reference;
  double reference_cov = 0.0;
  for (uint32_t threads : {1u, 4u}) {
    SummarizeOptions options;
    options.parallel.threads = threads;
    auto context =
        SummarizerContext::Make(bundle->schema, bundle->annotations, options);
    ASSERT_TRUE(context.ok()) << context.status().ToString();
    ASSERT_TRUE(TakesGreedyPath(*context, k));
    if (reference.empty()) {
      reference = ReferenceGreedy(*context, k, &reference_cov);
      ASSERT_EQ(reference.size(), k);
    }
    auto selected = SelectMaxCoverage(*context, k);
    ASSERT_TRUE(selected.ok()) << selected.status().ToString();
    EXPECT_EQ(*selected, reference) << "threads=" << threads;
    EXPECT_EQ(CoverageOfSet(bundle->schema, context->affinity(),
                            context->coverage(), *selected),
              reference_cov)
        << "threads=" << threads;
  }
}

/// A small schema whose greedy rounds hit every branch of the take-over
/// select. d1 has the same positive affinity toward its sibling d2 and its
/// child leaf, but leaf covers it far better: once round 1 has picked d2,
/// the equal-affinity clause of TakesOver decides round 2 (leaf over p).
/// Every round offers each candidate to itself, and from round 2 on some
/// elements are already used.
struct GreedyTieFixture {
  ElementId p = 0, c1 = 0, c2 = 0, q = 0, d1 = 0, d2 = 0, leaf = 0;
  SchemaGraph schema;
  Annotations ann;

  GreedyTieFixture() : schema(Make(this)), ann(schema) {
    ann.set_card(schema.root(), 1);
    Set(p, 160);
    Set(c1, 20);
    Set(c2, 40);
    Set(q, 80);
    Set(d1, 40);
    Set(d2, 160);
    Set(leaf, 160);
  }

  void Set(ElementId e, uint64_t c) {
    ann.set_card(e, c);
    ann.set_structural_count(schema.parent_link(e), c);
  }

  static SchemaGraph Make(GreedyTieFixture* f) {
    SchemaBuilder b("db");
    f->p = b.SetRcd(b.Root(), "p");
    f->c1 = b.SetRcd(f->p, "c1");
    f->c2 = b.SetRcd(f->p, "c2");
    f->q = b.SetRcd(b.Root(), "q");
    f->d1 = b.SetRcd(f->q, "d1");
    f->d2 = b.SetRcd(f->q, "d2");
    f->leaf = b.SetSimple(f->d1, "leaf");
    return std::move(b).Build();
  }
};

TEST(GreedyMaxCoverageTest, TieFixtureMatchesReferenceAtEveryK) {
  GreedyTieFixture f;
  for (uint32_t threads : {1u, 4u}) {
    SummarizeOptions options;
    options.parallel.threads = threads;
    options.max_coverage_enumeration_budget = 0;  // always greedy
    auto context = SummarizerContext::Make(f.schema, f.ann, options);
    ASSERT_TRUE(context.ok()) << context.status().ToString();
    const AffinityMatrix& a = context->affinity();
    const CoverageMatrix& c = context->coverage();
    // The equal-affinity clause of TakesOver is live for d1.
    ASSERT_GT(a.At(f.d1, f.d2), 0.0);
    ASSERT_EQ(a.At(f.d1, f.d2), a.At(f.d1, f.leaf));
    ASSERT_GT(c.At(f.leaf, f.d1), c.At(f.d2, f.d1));
    const std::vector<ElementId>& cands = context->dominance().candidates;
    ASSERT_GE(cands.size(), 3u);
    auto first_two = SelectMaxCoverage(*context, 2);
    ASSERT_TRUE(first_two.ok());
    ASSERT_EQ(*first_two, (std::vector<ElementId>{f.d2, f.leaf}));
    for (size_t k = 1; k < cands.size(); ++k) {
      ASSERT_TRUE(TakesGreedyPath(*context, k));
      double reference_cov = 0.0;
      const std::vector<ElementId> reference =
          ReferenceGreedy(*context, k, &reference_cov);
      auto selected = SelectMaxCoverage(*context, k);
      ASSERT_TRUE(selected.ok()) << selected.status().ToString();
      EXPECT_EQ(*selected, reference) << "k=" << k << " threads=" << threads;
      EXPECT_EQ(CoverageOfSet(f.schema, a, c, *selected), reference_cov)
          << "k=" << k << " threads=" << threads;
    }
  }
}

TEST(GreedyMaxCoverageTest, ExpiredDeadlineStopsBeforeTheFirstRound) {
  GreedyTieFixture f;
  SummarizeOptions options;
  options.max_coverage_enumeration_budget = 0;
  auto token = std::make_shared<CancelToken>();
  options.parallel.deadline.AttachCancel(token);
  auto context = SummarizerContext::Make(f.schema, f.ann, options);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  ASSERT_TRUE(TakesGreedyPath(*context, 2));
  token->Cancel();
  auto selected = SelectMaxCoverage(*context, 2);
  ASSERT_FALSE(selected.ok());
  EXPECT_TRUE(selected.status().IsDeadlineExceeded())
      << selected.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, GreedyEquivalenceTest,
    ::testing::Values(GreedyInput{"XMark", 10}, GreedyInput{"MiMI", 10},
                      GreedyInput{"QuickScenario", 8}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace ssum
