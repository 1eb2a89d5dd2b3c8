// Extension study: multi-level summaries (paper Section 2: "a multi-level
// summary ... can be helpful for a user facing extremely large schemas").
// Compares query-discovery cost under a flat small summary, a flat large
// summary, and a two-level summary whose coarse level matches the small one.

#include <cstdio>

#include "common/parallel.h"
#include "common/string_util.h"
#include "core/multilevel.h"
#include "core/summarize.h"
#include "datasets/registry.h"
#include "eval/table_printer.h"
#include "query/discovery.h"

using namespace ssum;

int main(int argc, char** argv) {
  ssum::ConsumeThreadsFlag(&argc, argv);  // --threads N
  TablePrinter table({"dataset", "flat k=6", "flat k=18", "two-level 18->6",
                      "best-first (no summary)"});
  for (DatasetKind kind : {DatasetKind::kXMark, DatasetKind::kMimi}) {
    auto bundle = LoadDataset(kind, 0.2);
    if (!bundle.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   bundle.status().ToString().c_str());
      return 1;
    }
    DiscoveryOracle oracle(bundle->schema);
    auto context =
        SummarizerContext::Make(bundle->schema, bundle->annotations)
            .ValueOrDie();
    auto flat_small = Summarize(context, 6);
    auto flat_large = Summarize(context, 18);
    auto levels = SummarizeMultiLevel(bundle->schema, bundle->annotations,
                                      {18, 6});
    if (!flat_small.ok() || !flat_large.ok() || !levels.ok()) {
      std::fprintf(stderr, "summarize failed\n");
      return 1;
    }
    double best = AverageDiscoveryCost(oracle, bundle->workload,
                                       TraversalStrategy::kBestFirst);
    double small_cost = AverageDiscoveryCostWithSummary(oracle, *flat_small,
                                                        bundle->workload);
    double large_cost = AverageDiscoveryCostWithSummary(oracle, *flat_large,
                                                        bundle->workload);
    double multi = 0;
    for (const QueryIntention& q : bundle->workload.queries) {
      multi += static_cast<double>(
          DiscoverWithMultiLevel(oracle, *levels, q).cost);
    }
    multi /= static_cast<double>(bundle->workload.size());
    table.AddRow({bundle->name, FormatDouble(small_cost, 2),
                  FormatDouble(large_cost, 2), FormatDouble(multi, 2),
                  FormatDouble(best, 2)});
  }
  std::printf(
      "Multi-level summaries (extension of paper Section 2)\n%s\n"
      "A two-level summary presents only 6 coarse elements up front (the\n"
      "small summary's comprehension load) while retaining the finer 18-way\n"
      "partition underneath; its discovery cost should sit between the two\n"
      "flat configurations.\n",
      table.ToString().c_str());
  return 0;
}
