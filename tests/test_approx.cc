#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/approx_cover.h"
#include "core/metrics.h"
#include "core/summarize.h"
#include "datasets/registry.h"
#include "datasets/synthetic.h"
#include "schema/schema_builder.h"
#include "stats/annotate.h"

namespace ssum {
namespace {

/// Three top-level entities with unequal weight plus attached detail
/// (mirrors the test_summarize fixture).
struct Fixture {
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

std::vector<ElementId> AllNonRoot(const SchemaGraph& graph) {
  std::vector<ElementId> out;
  for (ElementId e = 1; e < graph.size(); ++e) out.push_back(e);
  return out;
}

TEST(ApproxSketchTest, FullSketchMatchesCoverageRow) {
  Fixture f;
  SummarizerContext context(f.schema, f.ann);
  ApproxCoverOptions opts;
  opts.epsilon = 0.0;  // keep every positive entry
  auto sketches = BuildCoverageSketches(f.schema, context.coverage(),
                                        AllNonRoot(f.schema), opts);
  ASSERT_EQ(sketches.size(), f.schema.size() - 1);
  for (const CoverageSketch& s : sketches) {
    double mass = 0.0;
    for (size_t i = 0; i < s.elems.size(); ++i) {
      EXPECT_NE(s.elems[i], f.schema.root());
      EXPECT_GT(s.values[i], 0.0);
      EXPECT_EQ(s.values[i], context.coverage().At(s.candidate, s.elems[i]));
      if (i > 0) EXPECT_LT(s.elems[i - 1], s.elems[i]);  // ascending ids
      mass += s.values[i];
    }
    EXPECT_DOUBLE_EQ(s.mass, mass);
    // Epsilon 0: every positive non-root row entry is present.
    size_t positives = 0;
    for (ElementId e = 1; e < f.schema.size(); ++e) {
      if (context.coverage().At(s.candidate, e) > 0.0) ++positives;
    }
    EXPECT_EQ(s.width(), positives);
  }
}

TEST(ApproxSketchTest, SmallerEpsilonKeepsSupersets) {
  auto bundle = LoadDataset(DatasetKind::kXMark, 0.05);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  SummarizerContext context(bundle->schema, bundle->annotations);
  const std::vector<ElementId>& cands = context.dominance().candidates;

  std::vector<std::vector<CoverageSketch>> by_eps;
  for (double eps : {0.0, 0.05, 0.1, 0.3, 0.8}) {
    ApproxCoverOptions opts;
    opts.epsilon = eps;
    by_eps.push_back(
        BuildCoverageSketches(bundle->schema, context.coverage(), cands, opts));
  }
  for (size_t i = 1; i < by_eps.size(); ++i) {
    for (size_t c = 0; c < cands.size(); ++c) {
      const CoverageSketch& wide = by_eps[i - 1][c];
      const CoverageSketch& narrow = by_eps[i][c];
      // Monotone truncation: a larger epsilon keeps a subset of the entries
      // (so width and mass never grow) and at least (1 - eps) of the mass.
      EXPECT_LE(narrow.width(), wide.width());
      EXPECT_LE(narrow.mass, wide.mass + 1e-12);
      for (ElementId e : narrow.elems) {
        EXPECT_TRUE(std::binary_search(wide.elems.begin(), wide.elems.end(),
                                       e));
      }
    }
  }
  const std::vector<CoverageSketch>& full = by_eps.front();
  const std::vector<CoverageSketch>& widest_trunc = by_eps[1];  // eps 0.05
  for (size_t c = 0; c < cands.size(); ++c) {
    EXPECT_GE(widest_trunc[c].mass, (1.0 - 0.05) * full[c].mass - 1e-12);
  }
}

TEST(ApproxPruneTest, DominatedSketchIsDropped) {
  CoverageSketch strong;
  strong.candidate = 1;
  strong.elems = {2, 3, 4};
  strong.values = {5.0, 5.0, 1.0};
  strong.mass = 11.0;
  CoverageSketch weak;  // entrywise below `strong`
  weak.candidate = 2;
  weak.elems = {2, 3};
  weak.values = {4.0, 5.0};
  weak.mass = 9.0;
  CoverageSketch other;  // covers an element nobody else has
  other.candidate = 3;
  other.elems = {7};
  other.values = {0.5};
  other.mass = 0.5;
  auto kept = PruneDominatedSketches({strong, weak, other});
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], 0u);  // mass-descending order
  EXPECT_EQ(kept[1], 2u);
}

TEST(ApproxSelectTest, LazyGreedyMatchesPlainGreedyOnSketches) {
  Fixture f;
  SummarizerContext context(f.schema, f.ann);
  ApproxCoverOptions opts;
  opts.epsilon = 0.0;
  auto sketches = BuildCoverageSketches(f.schema, context.coverage(),
                                        AllNonRoot(f.schema), opts);
  std::vector<uint32_t> kept(sketches.size());
  for (uint32_t i = 0; i < kept.size(); ++i) kept[i] = i;

  const size_t k = 3;
  auto lazy = SelectLazyGreedy(f.schema.size(), sketches, kept, k);

  // Reference: plain greedy over the same sketched objective.
  std::vector<double> best(f.schema.size(), 0.0);
  std::vector<bool> used(sketches.size(), false);
  std::vector<ElementId> plain;
  for (size_t round = 0; round < k; ++round) {
    double top_gain = 0.0;
    size_t top = sketches.size();
    for (size_t i = 0; i < sketches.size(); ++i) {
      if (used[i]) continue;
      double gain = 0.0;
      for (size_t j = 0; j < sketches[i].elems.size(); ++j) {
        const double d = sketches[i].values[j] - best[sketches[i].elems[j]];
        if (d > 0.0) gain += d;
      }
      if (gain > top_gain) {
        top_gain = gain;
        top = i;
      }
    }
    if (top == sketches.size()) break;
    used[top] = true;
    plain.push_back(sketches[top].candidate);
    for (size_t j = 0; j < sketches[top].elems.size(); ++j) {
      double& b = best[sketches[top].elems[j]];
      b = std::max(b, sketches[top].values[j]);
    }
  }
  EXPECT_EQ(lazy, plain);
}

TEST(ApproxSelectTest, EdgeCasesReturnCleanly) {
  Fixture f;
  SummarizerContext context(f.schema, f.ann);
  const std::vector<ElementId> cands = AllNonRoot(f.schema);

  // Empty candidate set and k = 0: empty selection, no work.
  EXPECT_TRUE(ApproxMaxCoverage(f.schema, context.coverage(), {}, 3).empty());
  EXPECT_TRUE(
      ApproxMaxCoverage(f.schema, context.coverage(), cands, 0).empty());

  // k beyond every useful candidate: at most the positive-gain prefix.
  auto all = ApproxMaxCoverage(f.schema, context.coverage(), cands, 100);
  EXPECT_LE(all.size(), cands.size());
  std::vector<ElementId> sorted = all;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());

  // All-zero sketches (a candidate set with no coverage): empty selection.
  std::vector<CoverageSketch> zero(2);
  zero[0].candidate = 1;
  zero[1].candidate = 2;
  EXPECT_TRUE(SelectLazyGreedy(f.schema.size(), zero, {0, 1}, 2).empty());
}

class ApproxDatasetTest : public ::testing::TestWithParam<DatasetKind> {
 protected:
  static double Scale(DatasetKind kind) {
    switch (kind) {
      case DatasetKind::kXMark:
        return 0.05;
      case DatasetKind::kTpch:
        return 0.01;
      case DatasetKind::kMimi:
        return 0.02;
    }
    return 1.0;
  }
};

TEST_P(ApproxDatasetTest, DeterministicAcrossThreadsAndRuns) {
  auto bundle = LoadDataset(GetParam(), Scale(GetParam()));
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  SummarizerContext context(bundle->schema, bundle->annotations);
  const std::vector<ElementId>& cands = context.dominance().candidates;
  const size_t k = std::min<size_t>(5, cands.size());

  ApproxCoverOptions serial;
  serial.parallel.threads = 1;
  const auto reference =
      ApproxMaxCoverage(bundle->schema, context.coverage(), cands, k, serial);
  for (uint32_t t : {1u, 2u, 3u, 8u}) {
    for (int run = 0; run < 2; ++run) {
      ApproxCoverOptions opts;
      opts.parallel.threads = t;
      EXPECT_EQ(ApproxMaxCoverage(bundle->schema, context.coverage(), cands,
                                  k, opts),
                reference)
          << "t=" << t << " run=" << run;
    }
  }
}

TEST_P(ApproxDatasetTest, EpsilonQualityOnPaperDatasets) {
  auto bundle = LoadDataset(GetParam(), Scale(GetParam()));
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  SummarizerContext context(bundle->schema, bundle->annotations);
  const std::vector<ElementId>& cands = context.dominance().candidates;
  const size_t k = std::min<size_t>(4, cands.size());

  auto exact = SelectMaxCoverage(context, k);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  const double exact_cov = CoverageOfSet(bundle->schema, context.affinity(),
                                         context.coverage(), *exact);
  ASSERT_GT(exact_cov, 0.0);

  // Tighter sketches never lose retained mass (SmallerEpsilonKeepsSupersets),
  // and the end-to-end selection quality stays within the 0.95x quality
  // bound at every sweep point.
  for (double eps : {0.0, 0.05, 0.1, 0.3}) {
    ApproxCoverOptions opts;
    opts.epsilon = eps;
    auto approx =
        ApproxMaxCoverage(bundle->schema, context.coverage(), cands, k, opts);
    const double cov = CoverageOfSet(bundle->schema, context.affinity(),
                                     context.coverage(), approx);
    EXPECT_GE(cov, 0.95 * exact_cov) << "epsilon=" << eps;
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, ApproxDatasetTest,
                         ::testing::Values(DatasetKind::kXMark,
                                           DatasetKind::kTpch,
                                           DatasetKind::kMimi),
                         [](const auto& info) {
                           switch (info.param) {
                             case DatasetKind::kXMark:
                               return "XMark";
                             case DatasetKind::kTpch:
                               return "Tpch";
                             case DatasetKind::kMimi:
                               return "Mimi";
                           }
                           return "?";
                         });

TEST(ApproxModeTest, WiredPathMatchesEngine) {
  auto bundle = LoadDataset(DatasetKind::kXMark, 0.05);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  SummarizeOptions approx_opts;
  approx_opts.mode = SummaryMode::kApprox;
  SummarizerContext context(bundle->schema, bundle->annotations, approx_opts);
  auto wired = SelectMaxCoverage(context, 5);
  ASSERT_TRUE(wired.ok()) << wired.status().ToString();

  ApproxCoverOptions engine_opts;
  engine_opts.epsilon = approx_opts.approx_epsilon;
  auto direct = ApproxMaxCoverage(bundle->schema, context.coverage(),
                                  context.dominance().candidates, 5,
                                  engine_opts);
  EXPECT_EQ(*wired, direct);

  // The full Summarize facade accepts the mode too.
  auto summary = Summarize(context, 5, Algorithm::kMaxCoverage);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->abstract_elements.size(), 5u);
}

TEST(ApproxModeTest, ModeNames) {
  EXPECT_STREQ(SummaryModeName(SummaryMode::kExact), "exact");
  EXPECT_STREQ(SummaryModeName(SummaryMode::kApprox), "approx");
}

TEST(SyntheticTest, SameSeedSameSchema) {
  SyntheticSchemaParams params;
  params.elements = 400;
  SyntheticSchema a = BuildSyntheticSchema(params);
  SyntheticSchema b = BuildSyntheticSchema(params);
  ASSERT_EQ(a.graph.size(), b.graph.size());
  EXPECT_EQ(a.graph.size(), params.elements);
  for (ElementId e = 0; e < a.graph.size(); ++e) {
    EXPECT_EQ(a.graph.label(e), b.graph.label(e));
    EXPECT_EQ(a.graph.parent(e), b.graph.parent(e));
    EXPECT_EQ(a.graph.type(e), b.graph.type(e));
  }
  EXPECT_EQ(a.graph.value_links(), b.graph.value_links());
  EXPECT_EQ(a.annotations, b.annotations);
}

TEST(SyntheticTest, SeedChangesSchema) {
  SyntheticSchemaParams a_params, b_params;
  a_params.elements = b_params.elements = 400;
  b_params.seed = a_params.seed + 1;
  SyntheticSchema a = BuildSyntheticSchema(a_params);
  SyntheticSchema b = BuildSyntheticSchema(b_params);
  ASSERT_EQ(a.graph.size(), b.graph.size());
  bool differs = a.graph.value_links() != b.graph.value_links();
  for (ElementId e = 1; e < a.graph.size() && !differs; ++e) {
    differs = a.graph.parent(e) != b.graph.parent(e) ||
              a.graph.type(e) != b.graph.type(e);
  }
  EXPECT_TRUE(differs);
}

TEST(SyntheticTest, AnnotationsAreConsistent) {
  SyntheticSchemaParams params;
  params.elements = 400;
  SyntheticSchema s = BuildSyntheticSchema(params);
  EXPECT_EQ(s.annotations.card(s.graph.root()), 1u);
  for (ElementId e = 1; e < s.graph.size(); ++e) {
    const uint64_t card = s.annotations.card(e);
    EXPECT_GE(card, 1u);
    EXPECT_LE(card, params.max_card);
    // One structural-link instance per child instance, and single-valued
    // children mirror their parent's cardinality.
    EXPECT_EQ(s.annotations.structural_count(s.graph.parent_link(e)), card);
    if (!s.graph.type(e).set_of) {
      EXPECT_EQ(card, s.annotations.card(s.graph.parent(e)));
    }
  }
  // The generator produced a usable summarization input end to end.
  SummarizeOptions opts;
  opts.mode = SummaryMode::kApprox;
  auto summary = Summarize(s.graph, s.annotations, 6, Algorithm::kMaxCoverage,
                           opts);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->abstract_elements.size(), 6u);
}

}  // namespace
}  // namespace ssum
