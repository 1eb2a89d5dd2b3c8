// Dedicated tests for the bounded-walk max-product engine underlying
// Formula 2 (affinity) and Formula 3 (coverage) — the scalar reference
// (MaxProductWalks) and the batched CSR engine (MaxProductWalksBatch),
// which must agree bit for bit.

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "core/path_engine.h"
#include "schema/schema_builder.h"

namespace ssum {
namespace {

/// Builds uniform factors of `value` for every adjacency record.
EdgeFactors UniformFactors(const SchemaGraph& graph, double value) {
  EdgeFactors f(graph.size());
  for (ElementId e = 0; e < graph.size(); ++e) {
    f[e].assign(graph.neighbors(e).size(), value);
  }
  return f;
}

/// How a parameterized test evaluates a walk.
enum class WalkEngine {
  kScalar,        // the reference MaxProductWalks
  kBatchedSingle, // MaxProductWalksBatch with a single-source batch
  kBatchedFull,   // one all-sources batch; the requested row is extracted
};

const char* EngineName(WalkEngine e) {
  switch (e) {
    case WalkEngine::kScalar: return "Scalar";
    case WalkEngine::kBatchedSingle: return "BatchedSingle";
    case WalkEngine::kBatchedFull: return "BatchedFull";
  }
  return "?";
}

/// Runs one source row through the engine under test.
std::vector<double> RunWalk(WalkEngine engine, const SchemaGraph& graph,
                            const EdgeFactors& factors, ElementId source,
                            const WalkSearchOptions& opts) {
  if (engine == WalkEngine::kScalar) {
    return MaxProductWalks(graph, factors, source, opts);
  }
  const size_t n = graph.size();
  const WalkPlan plan = WalkPlan::Build(graph, factors);
  if (engine == WalkEngine::kBatchedSingle) {
    std::vector<double> row(n, -1.0);  // poison: the kernel must overwrite
    std::span<double> row_span(row);
    MaxProductWalksBatch(plan, {&source, 1}, opts, {&row_span, 1});
    return row;
  }
  // kBatchedFull: every element is a source in one batch, so the requested
  // row shares lane blocks with unrelated sources.
  std::vector<double> all(n * n, -1.0);
  std::vector<ElementId> sources(n);
  std::vector<std::span<double>> rows(n);
  for (ElementId s = 0; s < n; ++s) {
    sources[s] = s;
    rows[s] = {all.data() + s * n, n};
  }
  MaxProductWalksBatch(plan, sources, opts, rows);
  return {all.begin() + source * n, all.begin() + (source + 1) * n};
}

class WalkEngineTest : public ::testing::TestWithParam<WalkEngine> {
 protected:
  std::vector<double> Run(const SchemaGraph& graph, const EdgeFactors& factors,
                          ElementId source, const WalkSearchOptions& opts) {
    return RunWalk(GetParam(), graph, factors, source, opts);
  }
};

TEST_P(WalkEngineTest, RootOnlyGraphHasNoWalks) {
  SchemaBuilder b("r");
  SchemaGraph g = std::move(b).Build();
  ASSERT_EQ(g.size(), 1u);
  EdgeFactors f = UniformFactors(g, 1.0);
  WalkSearchOptions opts;
  opts.max_steps = 8;
  auto best = Run(g, f, g.root(), opts);
  ASSERT_EQ(best.size(), 1u);
  EXPECT_DOUBLE_EQ(best[0], 0.0);  // no walk of length >= 1 exists
}

TEST_P(WalkEngineTest, IsolatedSourceReachesNothing) {
  // All factors incident to the source are zero: the frontier dies on the
  // first step and every entry (including the source's own) stays 0.
  SchemaBuilder b("r");
  ElementId a = b.SetRcd(b.Root(), "a");
  ElementId c = b.SetRcd(a, "c");
  SchemaGraph g = std::move(b).Build();
  EdgeFactors f = UniformFactors(g, 1.0);
  f[a].assign(g.neighbors(a).size(), 0.0);
  WalkSearchOptions opts;
  opts.max_steps = 16;
  auto best = Run(g, f, a, opts);
  for (ElementId t = 0; t < g.size(); ++t) {
    EXPECT_DOUBLE_EQ(best[t], 0.0) << "target " << t;
  }
  EXPECT_DOUBLE_EQ(Run(g, f, g.root(), opts)[c], 0.0);  // blocked at a
}

TEST_P(WalkEngineTest, StepBudgetSmallerThanDiameter) {
  // Chain r-a-c-d; with max_steps=2 the 3-hop target d is unreachable.
  SchemaBuilder b("r");
  ElementId a = b.SetRcd(b.Root(), "a");
  ElementId c = b.SetRcd(a, "c");
  ElementId d = b.SetRcd(c, "d");
  SchemaGraph g = std::move(b).Build();
  EdgeFactors f = UniformFactors(g, 0.5);
  WalkSearchOptions opts;
  opts.max_steps = 2;
  auto best = Run(g, f, g.root(), opts);
  EXPECT_DOUBLE_EQ(best[a], 0.5);
  EXPECT_DOUBLE_EQ(best[c], 0.25);
  EXPECT_DOUBLE_EQ(best[d], 0.0);  // beyond the budget
}

TEST_P(WalkEngineTest, ZeroStepBudgetYieldsAllZeros) {
  SchemaBuilder b("r");
  ElementId a = b.SetRcd(b.Root(), "a");
  SchemaGraph g = std::move(b).Build();
  EdgeFactors f = UniformFactors(g, 1.0);
  WalkSearchOptions opts;
  opts.max_steps = 0;
  auto best = Run(g, f, g.root(), opts);
  EXPECT_DOUBLE_EQ(best[g.root()], 0.0);
  EXPECT_DOUBLE_EQ(best[a], 0.0);
}

TEST_P(WalkEngineTest, DivideByStepsTieBreaksMatchScalar) {
  // Direct route 0.5/1 ties the two-hop route 1.0/2; both engines must
  // resolve the tie to exactly the same double.
  SchemaBuilder b("r");
  ElementId x = b.SetRcd(b.Root(), "x");
  ElementId y = b.SetRcd(b.Root(), "y");
  b.Link(y, x);
  SchemaGraph g = std::move(b).Build();
  EdgeFactors f(g.size());
  f[g.root()] = {0.5, 1.0};
  f[x].assign(g.neighbors(x).size(), 1.0);
  f[y].assign(g.neighbors(y).size(), 1.0);
  WalkSearchOptions opts;
  opts.max_steps = 4;
  opts.divide_by_steps = true;
  auto best = Run(g, f, g.root(), opts);
  auto ref = MaxProductWalks(g, f, g.root(), opts);
  EXPECT_DOUBLE_EQ(best[x], 0.5);
  ASSERT_EQ(best.size(), ref.size());
  EXPECT_EQ(0, std::memcmp(best.data(), ref.data(),
                           ref.size() * sizeof(double)));
}

TEST_P(WalkEngineTest, SourceCycleDoesNotInflate) {
  // root <-> a <-> c plus a c->a link: walks can revisit the source, but
  // sub-unit factors mean longer walks only lose value.
  SchemaBuilder b("r");
  ElementId a = b.SetRcd(b.Root(), "a");
  ElementId c = b.SetRcd(a, "c");
  b.Link(c, a);
  SchemaGraph g = std::move(b).Build();
  EdgeFactors f = UniformFactors(g, 0.9);
  WalkSearchOptions opts;
  opts.max_steps = 64;
  auto best = Run(g, f, a, opts);
  EXPECT_DOUBLE_EQ(best[g.root()], 0.9);
  EXPECT_DOUBLE_EQ(best[c], 0.9);
  EXPECT_DOUBLE_EQ(best[a], 0.81);  // a->c->a round trip
}

TEST_P(WalkEngineTest, BitIdenticalToScalarOnEveryRow) {
  // A graph with cycles, asymmetric factors, and a dead edge; every source
  // row of the engine under test must equal the scalar walk byte for byte.
  SchemaBuilder b("r");
  ElementId x = b.SetRcd(b.Root(), "x");
  ElementId y = b.SetRcd(b.Root(), "y");
  ElementId z = b.SetRcd(x, "z");
  b.Link(y, x);
  b.Link(z, y);
  SchemaGraph g = std::move(b).Build();
  EdgeFactors f(g.size());
  for (ElementId e = 0; e < g.size(); ++e) {
    f[e].resize(g.neighbors(e).size());
    for (size_t i = 0; i < f[e].size(); ++i) {
      f[e][i] = (e + 1) * 0.13 + i * 0.07;  // asymmetric, some > 1
      if (e == y && i == 0) f[e][i] = 0.0;  // dead edge
    }
  }
  for (bool divide : {false, true}) {
    WalkSearchOptions opts;
    opts.max_steps = 12;
    opts.divide_by_steps = divide;
    for (ElementId s = 0; s < g.size(); ++s) {
      auto got = Run(g, f, s, opts);
      auto ref = MaxProductWalks(g, f, s, opts);
      ASSERT_EQ(got.size(), ref.size());
      EXPECT_EQ(0, std::memcmp(got.data(), ref.data(),
                               ref.size() * sizeof(double)))
          << "source " << s << " divide_by_steps " << divide;
    }
  }
}

/// root -> x directly (factor 0.5) or root -> y -> w -> x over a value
/// link (0.9 per step, 0.729 in three steps), then a chain z1..z4 below x
/// (0.9 per step). The longer route to x has the larger product, so the
/// batched kernel must keep x on its frontier after reaching it at step 1.
/// Divided by the step count the direct route wins at x (0.5 > 0.243), yet
/// the detour wins again at z4 (0.729 * 0.9^4 / 7 > 0.5 * 0.9^4 / 5).
struct DetourGraph {
  ElementId x = 0, y = 0, w = 0, z1 = 0, z4 = 0;
  SchemaGraph graph;
  EdgeFactors factors;

  DetourGraph() : graph(Make(this)), factors(graph.size()) {
    for (ElementId e = 0; e < graph.size(); ++e) {
      factors[e].assign(graph.neighbors(e).size(), 0.9);
    }
    const auto& root_nbrs = graph.neighbors(graph.root());
    for (size_t i = 0; i < root_nbrs.size(); ++i) {
      if (root_nbrs[i].other == x) factors[graph.root()][i] = 0.5;
    }
  }

  static SchemaGraph Make(DetourGraph* d) {
    SchemaBuilder b("r");
    d->x = b.SetRcd(b.Root(), "x");
    d->y = b.SetRcd(b.Root(), "y");
    d->w = b.SetRcd(d->y, "w");
    d->z1 = b.SetRcd(d->x, "z1");
    const ElementId z2 = b.SetRcd(d->z1, "z2");
    const ElementId z3 = b.SetRcd(z2, "z3");
    d->z4 = b.SetRcd(z3, "z4");
    b.Link(d->w, d->x);
    return std::move(b).Build();
  }

  /// Every source row of `run` must equal the scalar walk byte for byte.
  template <typename Run>
  void ExpectScalarRows(Run&& run, const WalkSearchOptions& opts) const {
    for (ElementId s = 0; s < graph.size(); ++s) {
      auto got = run(graph, factors, s, opts);
      auto ref = MaxProductWalks(graph, factors, s, opts);
      ASSERT_EQ(got.size(), ref.size());
      EXPECT_EQ(0, std::memcmp(got.data(), ref.data(),
                               ref.size() * sizeof(double)))
          << "source " << s << " max_steps " << opts.max_steps
          << " divide_by_steps " << opts.divide_by_steps;
    }
  }
};

constexpr double kDetour = 0.9 * 0.9 * 0.9;    // root -> y -> w -> x
constexpr double kChain = 0.9 * 0.9 * 0.9 * 0.9;  // x -> z1 -> ... -> z4

TEST_P(WalkEngineTest, LongerWalkBeatsShorterWalk) {
  const DetourGraph d;
  auto run = [&](const SchemaGraph& g, const EdgeFactors& f, ElementId s,
                 const WalkSearchOptions& o) { return Run(g, f, s, o); };
  WalkSearchOptions opts;
  opts.max_steps = 16;
  auto best = Run(d.graph, d.factors, d.graph.root(), opts);
  EXPECT_DOUBLE_EQ(best[d.x], kDetour);  // 3 steps beat 1
  EXPECT_DOUBLE_EQ(best[d.z4], kDetour * kChain);
  d.ExpectScalarRows(run, opts);
  opts.divide_by_steps = true;
  best = Run(d.graph, d.factors, d.graph.root(), opts);
  EXPECT_DOUBLE_EQ(best[d.x], 0.5);
  EXPECT_DOUBLE_EQ(best[d.z4], kDetour * kChain / 7);
  d.ExpectScalarRows(run, opts);
}

TEST_P(WalkEngineTest, BestWalkUsesExactlyMaxSteps) {
  // The 7-step detour to z4 wins in both modes when the budget is exactly
  // 7; one step less leaves only the direct 5-step walk.
  const DetourGraph d;
  auto run = [&](const SchemaGraph& g, const EdgeFactors& f, ElementId s,
                 const WalkSearchOptions& o) { return Run(g, f, s, o); };
  for (bool divide : {false, true}) {
    WalkSearchOptions opts;
    opts.divide_by_steps = divide;
    opts.max_steps = 7;
    auto best = Run(d.graph, d.factors, d.graph.root(), opts);
    EXPECT_DOUBLE_EQ(best[d.z4], kDetour * kChain / (divide ? 7 : 1));
    d.ExpectScalarRows(run, opts);
    opts.max_steps = 6;
    best = Run(d.graph, d.factors, d.graph.root(), opts);
    EXPECT_DOUBLE_EQ(best[d.z4], 0.5 * kChain / (divide ? 5 : 1));
    d.ExpectScalarRows(run, opts);
  }
}

INSTANTIATE_TEST_SUITE_P(WalkEngines, WalkEngineTest,
                         ::testing::Values(WalkEngine::kScalar,
                                           WalkEngine::kBatchedSingle,
                                           WalkEngine::kBatchedFull),
                         [](const auto& info) {
                           return EngineName(info.param);
                         });

TEST(WalkPlanTest, CsrLayoutMatchesAdjacency) {
  SchemaBuilder b("r");
  ElementId a = b.SetRcd(b.Root(), "a");
  ElementId c = b.SetRcd(a, "c");
  SchemaGraph g = std::move(b).Build();
  EdgeFactors f = UniformFactors(g, 0.25);
  const WalkPlan plan = WalkPlan::Build(g, f);
  ASSERT_EQ(plan.size(), g.size());
  ASSERT_EQ(plan.row_offsets.size(), g.size() + 1);
  size_t edges = 0;
  for (ElementId u = 0; u < g.size(); ++u) {
    const auto& nbrs = g.neighbors(u);
    ASSERT_EQ(plan.row_offsets[u + 1] - plan.row_offsets[u], nbrs.size());
    for (size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_EQ(plan.neighbor_ids[plan.row_offsets[u] + i], nbrs[i].other);
      EXPECT_DOUBLE_EQ(plan.edge_factors[plan.row_offsets[u] + i], 0.25);
    }
    edges += nbrs.size();
  }
  EXPECT_EQ(plan.num_edges(), edges);
  // The CSR arrays honor the cache-line alignment the kernel assumes.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(plan.edge_factors.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(plan.neighbor_ids.data()) % 64, 0u);

  // Zero-factor records are pruned from the snapshot (value-preserving:
  // zero products never win the max; see the WalkPlan contract).
  f[a].assign(g.neighbors(a).size(), 0.0);
  const WalkPlan pruned = WalkPlan::Build(g, f);
  EXPECT_EQ(pruned.row_offsets[a + 1], pruned.row_offsets[a]);
  EXPECT_LT(pruned.num_edges(), edges);
  (void)c;
}

TEST(PathEngineTest, ProductsMultiplyAlongChains) {
  SchemaBuilder b("r");
  ElementId a = b.SetRcd(b.Root(), "a");
  ElementId c = b.SetRcd(a, "c");
  ElementId d = b.SetRcd(c, "d");
  SchemaGraph g = std::move(b).Build();
  EdgeFactors f = UniformFactors(g, 0.5);
  WalkSearchOptions opts;
  opts.max_steps = 8;
  auto best = MaxProductWalks(g, f, g.root(), opts);
  EXPECT_DOUBLE_EQ(best[a], 0.5);
  EXPECT_DOUBLE_EQ(best[c], 0.25);
  EXPECT_DOUBLE_EQ(best[d], 0.125);
}

TEST(PathEngineTest, ChoosesTheHeavierRoute) {
  // Two routes root->x: direct (weak) and via y (two strong hops).
  SchemaBuilder b("r");
  ElementId x = b.SetRcd(b.Root(), "x");
  ElementId y = b.SetRcd(b.Root(), "y");
  b.Link(y, x);
  SchemaGraph g = std::move(b).Build();
  EdgeFactors f(g.size());
  // root's adjacency: [x (child), y (child)].
  f[g.root()] = {0.1, 0.9};
  f[x].assign(g.neighbors(x).size(), 0.9);
  f[y].assign(g.neighbors(y).size(), 0.9);
  WalkSearchOptions opts;
  opts.max_steps = 4;
  auto best = MaxProductWalks(g, f, g.root(), opts);
  // Direct: 0.1. Via y: 0.9 * 0.9 = 0.81.
  EXPECT_DOUBLE_EQ(best[x], 0.81);
}

TEST(PathEngineTest, DivideByStepsPrefersShortRoutes) {
  SchemaBuilder b("r");
  ElementId x = b.SetRcd(b.Root(), "x");
  ElementId y = b.SetRcd(b.Root(), "y");
  b.Link(y, x);
  SchemaGraph g = std::move(b).Build();
  EdgeFactors f(g.size());
  f[g.root()] = {0.5, 1.0};
  f[x].assign(g.neighbors(x).size(), 1.0);
  f[y].assign(g.neighbors(y).size(), 1.0);
  WalkSearchOptions opts;
  opts.max_steps = 4;
  opts.divide_by_steps = true;
  auto best = MaxProductWalks(g, f, g.root(), opts);
  // Direct: 0.5/1 = 0.5. Via y: 1.0/2 = 0.5. Max = 0.5 either way.
  EXPECT_DOUBLE_EQ(best[x], 0.5);
  opts.divide_by_steps = false;
  best = MaxProductWalks(g, f, g.root(), opts);
  EXPECT_DOUBLE_EQ(best[x], 1.0);  // undivided prefers the 2-hop route
}

TEST(PathEngineTest, ZeroFactorBlocksTraversal) {
  SchemaBuilder b("r");
  ElementId a = b.SetRcd(b.Root(), "a");
  ElementId c = b.SetRcd(a, "c");
  SchemaGraph g = std::move(b).Build();
  EdgeFactors f = UniformFactors(g, 1.0);
  // Kill the a->c edge (both directions to be thorough).
  const auto& nbrs = g.neighbors(a);
  for (size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i].other == c) f[a][i] = 0.0;
  }
  WalkSearchOptions opts;
  opts.max_steps = 8;
  auto best = MaxProductWalks(g, f, g.root(), opts);
  EXPECT_DOUBLE_EQ(best[c], 0.0);
  EXPECT_DOUBLE_EQ(best[a], 1.0);
}

TEST(PathEngineTest, EarlyExitOnExhaustedFrontier) {
  // Isolated root (no neighbors beyond one leaf): the search must stop
  // without consuming the full step budget (observable via correctness —
  // best stays 0 beyond reach).
  SchemaBuilder b("r");
  ElementId leaf = b.Simple(b.Root(), "leaf");
  SchemaGraph g = std::move(b).Build();
  EdgeFactors f = UniformFactors(g, 1.0);
  WalkSearchOptions opts;
  opts.max_steps = 1000000;  // would take forever without the early exit
  auto best = MaxProductWalks(g, f, g.root(), opts);
  EXPECT_DOUBLE_EQ(best[leaf], 1.0);
}

TEST(PathEngineTest, CyclesDoNotInflateWithSubUnitFactors) {
  // root <-> a <-> c with all factors < 1: longer walks only lose value.
  SchemaBuilder b("r");
  ElementId a = b.SetRcd(b.Root(), "a");
  ElementId c = b.SetRcd(a, "c");
  b.Link(c, a);  // extra cycle edge
  SchemaGraph g = std::move(b).Build();
  EdgeFactors f = UniformFactors(g, 0.9);
  WalkSearchOptions opts;
  opts.max_steps = 64;
  auto best = MaxProductWalks(g, f, g.root(), opts);
  EXPECT_DOUBLE_EQ(best[a], 0.9);
  EXPECT_DOUBLE_EQ(best[c], 0.81);
}

TEST(SquareMatrixTest, RowAccess) {
  SquareMatrix m(3, 0.0);
  m.Set(1, 2, 5.0);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 0.0);
  m.Row(0)[0] = 7.0;
  EXPECT_DOUBLE_EQ(m.At(0, 0), 7.0);
  EXPECT_EQ(m.size(), 3u);
}

}  // namespace
}  // namespace ssum
