// Thread-count determinism for the batched walk engine: AffinityMatrix and
// CoverageMatrix (which run lane blocks of MaxProductWalksBatch through
// WalkRows) must produce byte-identical matrices at every thread count and
// source order, and the batched kernel must reproduce the scalar walk bit
// for bit on the real evaluation schemas. Labeled `parallel` so the TSAN CI
// stage replays it under the race detector.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include "core/affinity.h"
#include "core/coverage.h"
#include "core/path_engine.h"
#include "datasets/mimi.h"
#include "datasets/scenario.h"
#include "datasets/tpch.h"
#include "datasets/xmark.h"
#include "stats/annotate.h"

namespace ssum {
namespace {

struct SchemaUnderTest {
  std::string name;
  SchemaGraph schema;
  Annotations ann;
};

std::vector<SchemaUnderTest> EvaluationSchemas() {
  std::vector<SchemaUnderTest> out;
  {
    XMarkParams p;
    p.sf = 0.01;
    XMarkDataset ds(p);
    auto stream = ds.MakeStream();
    out.push_back({"XMark", ds.schema(), *AnnotateSchema(*stream)});
  }
  {
    TpchParams p;
    p.sf = 0.01;
    TpchDataset ds(p);
    auto stream = ds.MakeStream();
    out.push_back({"TPC-H", ds.schema(), *AnnotateSchema(*stream)});
  }
  {
    MimiParams p;
    p.scale = 0.01;
    MimiDataset ds(p);
    auto stream = ds.MakeStream();
    out.push_back({"MiMI", ds.schema(), *AnnotateSchema(*stream)});
  }
  {
    // Generated value links close cycles the paper schemas lack.
    auto bundle =
        LoadScenarioFile(std::string(SSUM_SCENARIO_DIR) + "/quick.scn");
    EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
    if (bundle.ok()) {
      out.push_back({"QuickScenario", std::move(bundle->schema),
                     std::move(bundle->annotations)});
    }
  }
  return out;
}

/// The two factor sets the matrices walk: Formula 2's (divided by the step
/// count) and Formula 3's (undivided).
struct FactorSet {
  const char* name;
  EdgeFactors factors;
  bool divide_by_steps;
};

std::vector<FactorSet> FactorSets(const SchemaGraph& graph,
                                  const EdgeMetrics& metrics) {
  return {{"affinity", metrics.edge_affinity, true},
          {"coverage", CoverageStepFactors(graph, metrics), false}};
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(WalkBatchTest, BatchedRowsMatchScalarOnEvaluationSchemas) {
  for (const SchemaUnderTest& s : EvaluationSchemas()) {
    const EdgeMetrics metrics = EdgeMetrics::Compute(s.schema, s.ann);
    for (const FactorSet& set : FactorSets(s.schema, metrics)) {
      const WalkPlan plan = WalkPlan::Build(s.schema, set.factors);
      const size_t n = s.schema.size();
      WalkSearchOptions walk;
      walk.divide_by_steps = set.divide_by_steps;

      std::vector<double> batched(n * n);
      std::vector<ElementId> sources(n);
      std::vector<std::span<double>> rows(n);
      for (ElementId src = 0; src < n; ++src) {
        sources[src] = src;
        rows[src] = {batched.data() + src * n, n};
      }
      MaxProductWalksBatch(plan, sources, walk, rows);

      for (ElementId src = 0; src < n; ++src) {
        const std::vector<double> ref =
            MaxProductWalks(s.schema, set.factors, src, walk);
        ASSERT_EQ(0, std::memcmp(batched.data() + src * n, ref.data(),
                                 n * sizeof(double)))
            << s.name << " " << set.name << " source " << src;
      }
    }
  }
}

TEST(WalkBatchTest, WalkRowsIgnoresSourceOrderAndSubsets) {
  // WalkRows regroups its sources in the plan's visit order; a shuffled
  // source list and a patch-style subset must reproduce the cold rows and
  // leave every other row untouched.
  for (const SchemaUnderTest& s : EvaluationSchemas()) {
    const EdgeMetrics metrics = EdgeMetrics::Compute(s.schema, s.ann);
    const size_t n = s.schema.size();
    for (const FactorSet& set : FactorSets(s.schema, metrics)) {
      const WalkPlan plan = WalkPlan::Build(s.schema, set.factors);
      ASSERT_EQ(plan.visit_order.size(), n);
      WalkSearchOptions walk;
      walk.divide_by_steps = set.divide_by_steps;
      auto no_finish = [](ElementId, std::span<double>) {};
      std::vector<ElementId> all(n);
      std::iota(all.begin(), all.end(), ElementId{0});
      ParallelOptions t1;
      t1.threads = 1;
      SquareMatrix cold(n, 0.0);
      ASSERT_TRUE(WalkRows(plan, all, walk, cold, t1, no_finish).ok());

      std::mt19937 rng(7);
      std::vector<ElementId> shuffled = all;
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      std::vector<ElementId> subset;
      SquareMatrix patched_expected(n, -1.0);
      for (ElementId e : shuffled) {
        if (e % 3 != 1) continue;
        subset.push_back(e);
        std::copy_n(cold.Row(e), n, patched_expected.Row(e));
      }
      for (uint32_t threads : {1u, 4u}) {
        ParallelOptions tn;
        tn.threads = threads;
        SquareMatrix full(n, -1.0);
        ASSERT_TRUE(WalkRows(plan, shuffled, walk, full, tn, no_finish).ok());
        EXPECT_TRUE(SameBytes(full.data(), cold.data()))
            << s.name << " " << set.name << " shuffled at " << threads;

        SquareMatrix patched(n, -1.0);
        ASSERT_TRUE(WalkRows(plan, subset, walk, patched, tn, no_finish).ok());
        EXPECT_TRUE(SameBytes(patched.data(), patched_expected.data()))
            << s.name << " " << set.name << " subset at " << threads;
      }
    }
  }
}

TEST(WalkBatchTest, AffinityMatrixIsThreadCountInvariant) {
  for (const SchemaUnderTest& s : EvaluationSchemas()) {
    const EdgeMetrics metrics = EdgeMetrics::Compute(s.schema, s.ann);
    ParallelOptions t1;
    t1.threads = 1;
    const AffinityMatrix ref = AffinityMatrix::Compute(s.schema, metrics, {}, t1);
    for (uint32_t threads : {2u, 8u}) {
      ParallelOptions tn;
      tn.threads = threads;
      const AffinityMatrix got =
          AffinityMatrix::Compute(s.schema, metrics, {}, tn);
      EXPECT_TRUE(SameBytes(got.matrix().data(), ref.matrix().data()))
          << s.name << " at " << threads << " threads";
    }
  }
}

TEST(WalkBatchTest, CoverageMatrixIsThreadCountInvariant) {
  for (const SchemaUnderTest& s : EvaluationSchemas()) {
    const EdgeMetrics metrics = EdgeMetrics::Compute(s.schema, s.ann);
    ParallelOptions t1;
    t1.threads = 1;
    const CoverageMatrix ref =
        CoverageMatrix::Compute(s.schema, s.ann, metrics, {}, t1);
    for (uint32_t threads : {2u, 8u}) {
      ParallelOptions tn;
      tn.threads = threads;
      const CoverageMatrix got =
          CoverageMatrix::Compute(s.schema, s.ann, metrics, {}, tn);
      EXPECT_TRUE(SameBytes(got.matrix().data(), ref.matrix().data()))
          << s.name << " at " << threads << " threads";
    }
  }
}

TEST(WalkBatchTest, RepeatedAndUnorderedSourcesAreIndependent) {
  // The batch API allows arbitrary source lists; each output row depends
  // only on its own source, not on its lane neighbors.
  MimiParams p;
  p.scale = 0.01;
  MimiDataset ds(p);
  auto stream = ds.MakeStream();
  const Annotations ann = *AnnotateSchema(*stream);
  const EdgeMetrics metrics = EdgeMetrics::Compute(ds.schema(), ann);
  const WalkPlan plan = WalkPlan::Build(ds.schema(), metrics.edge_affinity);
  const size_t n = ds.schema().size();
  WalkSearchOptions walk;
  walk.divide_by_steps = true;

  std::vector<ElementId> sources = {0, 5, 5, 3, 0, 9, 7, 5, 1, 2, 3};
  for (ElementId& s : sources) s = s % n;
  std::vector<double> out(sources.size() * n);
  std::vector<std::span<double>> rows(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    rows[i] = {out.data() + i * n, n};
  }
  MaxProductWalksBatch(plan, sources, walk, rows);
  for (size_t i = 0; i < sources.size(); ++i) {
    const std::vector<double> ref =
        MaxProductWalks(ds.schema(), metrics.edge_affinity, sources[i], walk);
    EXPECT_EQ(0, std::memcmp(rows[i].data(), ref.data(), n * sizeof(double)))
        << "batch slot " << i << " source " << sources[i];
  }
}

}  // namespace
}  // namespace ssum
