// Ablations of the design choices DESIGN.md §6 calls out:
//   1. neighborhood factor p (paper: ranking stable for p in [0.1, 0.9],
//      converges slowly near 0 — Section 5.4);
//   2. affinity walk bound L (cost/fidelity of the bounded-walk engine);
//   3. exact vs greedy MaxCoverage (the enumeration-budget fallback);
//   4. convergence threshold c vs iteration count.

#include <algorithm>
#include <cstdio>
#include <set>

#include "common/parallel.h"
#include "common/string_util.h"
#include "core/metrics.h"
#include "core/summarize.h"
#include "datasets/registry.h"
#include "eval/agreement.h"
#include "eval/table_printer.h"
#include "query/discovery.h"

using namespace ssum;

namespace {

int SweepNeighborhoodFactor(const DatasetBundle& bundle) {
  std::printf("Ablation 1: neighborhood factor p (MiMI, size 10)\n");
  TablePrinter table({"p", "iterations", "converged", "top-10 overlap vs p=0.5",
                      "avg discovery cost"});
  // Reference ranking at p = 0.5.
  SummarizeOptions ref_opts;
  auto ref =
      SummarizerContext::Make(bundle.schema, bundle.annotations, ref_opts)
          .ValueOrDie();
  auto ref_sel = SelectBalanced(ref, 10);
  if (!ref_sel.ok()) return 1;
  DiscoveryOracle oracle(bundle.schema);
  for (double p : {0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    SummarizeOptions opts;
    opts.importance.neighborhood_factor = p;
    auto context =
        SummarizerContext::Make(bundle.schema, bundle.annotations, opts)
            .ValueOrDie();
    auto sel = SelectBalanced(context, 10);
    if (!sel.ok()) return 1;
    auto summary = Summarize(context, 10);
    if (!summary.ok()) return 1;
    double cost =
        AverageDiscoveryCostWithSummary(oracle, *summary, bundle.workload);
    table.AddRow({FormatDouble(p, 2),
                  std::to_string(context.importance().iterations),
                  context.importance().converged ? "yes" : "no",
                  Percent(SummaryAgreement(*sel, *ref_sel, 10)),
                  FormatDouble(cost, 2)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Paper reference: summaries stable across p in [0.1, 0.9]; slow "
      "convergence near p=0 is \"one more reason not to choose too small a "
      "p\" (Section 5.4).\n\n");
  return 0;
}

int SweepWalkBound(const DatasetBundle& bundle) {
  std::printf("Ablation 2: affinity/coverage walk bound L (MiMI, size 10)\n");
  TablePrinter table({"L", "summary vs L=16", "avg discovery cost"});
  SummarizeOptions ref_opts;
  auto ref =
      SummarizerContext::Make(bundle.schema, bundle.annotations, ref_opts)
          .ValueOrDie();
  auto ref_sel = SelectBalanced(ref, 10);
  if (!ref_sel.ok()) return 1;
  DiscoveryOracle oracle(bundle.schema);
  for (uint32_t steps : {2u, 4u, 8u, 16u, 32u}) {
    SummarizeOptions opts;
    opts.affinity.max_steps = steps;
    opts.coverage.max_steps = steps;
    auto context =
        SummarizerContext::Make(bundle.schema, bundle.annotations, opts)
            .ValueOrDie();
    auto sel = SelectBalanced(context, 10);
    auto summary = Summarize(context, 10);
    if (!sel.ok() || !summary.ok()) return 1;
    double cost =
        AverageDiscoveryCostWithSummary(oracle, *summary, bundle.workload);
    table.AddRow({std::to_string(steps),
                  Percent(SummaryAgreement(*sel, *ref_sel, 10)),
                  FormatDouble(cost, 2)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "The bound only matters until it covers the schema diameter; beyond "
      "that the summary is unchanged (which is why 16 is the default).\n\n");
  return 0;
}

int ExactVsGreedy() {
  std::printf("Ablation 3: exact vs greedy MaxCoverage (XMark sf 0.02, small k)\n");
  auto bundle = LoadDataset(DatasetKind::kXMark, 0.02);
  if (!bundle.ok()) return 1;
  TablePrinter table({"k", "exact coverage", "greedy coverage", "greedy/exact"});
  for (size_t k : {1u, 2u, 3u}) {
    SummarizeOptions exact_opts;
    exact_opts.max_coverage_enumeration_budget = 2000000;
    auto exact_ctx =
        SummarizerContext::Make(bundle->schema, bundle->annotations, exact_opts)
            .ValueOrDie();
    auto exact = SelectMaxCoverage(exact_ctx, k);
    SummarizeOptions greedy_opts;
    greedy_opts.max_coverage_enumeration_budget = 0;
    auto greedy_ctx =
        SummarizerContext::Make(bundle->schema, bundle->annotations,
                                greedy_opts)
            .ValueOrDie();
    auto greedy = SelectMaxCoverage(greedy_ctx, k);
    if (!exact.ok() || !greedy.ok()) return 1;
    double ce = CoverageOfSet(bundle->schema, exact_ctx.affinity(),
                              exact_ctx.coverage(), *exact);
    double cg = CoverageOfSet(bundle->schema, greedy_ctx.affinity(),
                              greedy_ctx.coverage(), *greedy);
    table.AddRow({std::to_string(k), FormatDouble(ce, 0), FormatDouble(cg, 0),
                  FormatDouble(ce > 0 ? cg / ce : 1.0, 4)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Greedy marginal-coverage selection tracks the exact enumeration "
      "closely at the sizes where enumeration is feasible, justifying the "
      "fallback for C(N',K) beyond the budget.\n\n");
  return 0;
}

int SweepConvergenceThreshold(const DatasetBundle& bundle) {
  std::printf("Ablation 4: convergence threshold c (MiMI)\n");
  TablePrinter table({"c", "iterations", "top-10 overlap vs c=0.1%"});
  auto ref =
      SummarizerContext::Make(bundle.schema, bundle.annotations).ValueOrDie();
  auto ref_ranked = ref.importance().Ranked();
  std::vector<ElementId> ref_top(ref_ranked.begin(), ref_ranked.begin() + 10);
  for (double c : {0.05, 0.01, 0.001, 0.0001, 0.00001}) {
    SummarizeOptions opts;
    opts.importance.convergence_threshold = c;
    auto context =
        SummarizerContext::Make(bundle.schema, bundle.annotations, opts)
            .ValueOrDie();
    auto ranked = context.importance().Ranked();
    std::vector<ElementId> top(ranked.begin(), ranked.begin() + 10);
    table.AddRow({FormatDouble(c * 100, 3) + "%",
                  std::to_string(context.importance().iterations),
                  Percent(SummaryAgreement(top, ref_top, 10))});
  }
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ssum::ConsumeThreadsFlag(&argc, argv);  // --threads N
  auto bundle = LoadDataset(DatasetKind::kMimi, 0.2);
  if (!bundle.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 bundle.status().ToString().c_str());
    return 1;
  }
  if (int rc = SweepNeighborhoodFactor(*bundle)) return rc;
  if (int rc = SweepWalkBound(*bundle)) return rc;
  if (int rc = ExactVsGreedy()) return rc;
  if (int rc = SweepConvergenceThreshold(*bundle)) return rc;
  return 0;
}
