// Regenerates paper Table 6: comparison against ER-model abstraction
// techniques (TWBK [13] and CAFP [4]) on MiMI, with and without human
// semantic labeling.

#include <cstdio>

#include "common/parallel.h"
#include "baselines/cafp.h"
#include "baselines/semantic_labels.h"
#include "baselines/twbk.h"
#include "common/string_util.h"
#include "eval/experiment.h"
#include "eval/table_printer.h"

using namespace ssum;

int main(int argc, char** argv) {
  ssum::ConsumeThreadsFlag(&argc, argv);  // --threads N
  auto bundle = LoadDataset(DatasetKind::kMimi);
  if (!bundle.ok()) {
    std::fprintf(stderr, "MiMI load failed: %s\n",
                 bundle.status().ToString().c_str());
    return 1;
  }
  const size_t k = 10;
  DiscoveryOracle oracle(bundle->schema);
  double best_first = AverageDiscoveryCost(oracle, bundle->workload,
                                           TraversalStrategy::kBestFirst);
  auto saving = [&](double cost) {
    return best_first > 0 ? 1.0 - cost / best_first : 0.0;
  };

  TablePrinter table({"", "Avg. cost", "Saving%"});
  // Our system.
  {
    auto context =
        SummarizerContext::Make(bundle->schema, bundle->annotations)
            .ValueOrDie();
    auto summary = Summarize(context, k, Algorithm::kBalanceSummary);
    if (!summary.ok()) {
      std::fprintf(stderr, "BalanceSummary failed: %s\n",
                   summary.status().ToString().c_str());
      return 1;
    }
    double cost =
        AverageDiscoveryCostWithSummary(oracle, *summary, bundle->workload);
    table.AddRow({"with BalanceSummary", FormatDouble(cost, 2),
                  Percent(saving(cost))});
  }
  table.AddSeparator();

  SemanticLabeling heuristic = SemanticLabeling::Heuristic(bundle->schema);
  auto human = MimiHumanLabeling(bundle->schema);
  if (!human.ok()) {
    std::fprintf(stderr, "human labeling failed: %s\n",
                 human.status().ToString().c_str());
    return 1;
  }
  struct Variant {
    const char* label;
    bool twbk;
    const SemanticLabeling* labeling;
  };
  const Variant variants[] = {
      {"TWBK [13] w/o human", true, &heuristic},
      {"TWBK [13] with human", true, &*human},
      {"CAFP [4] w/o human", false, &heuristic},
      {"CAFP [4] with human", false, &*human},
  };
  for (const Variant& v : variants) {
    auto summary = v.twbk ? TwbkSummarize(bundle->schema, *v.labeling, k)
                          : CafpSummarize(bundle->schema, *v.labeling, k);
    if (!summary.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", v.label,
                   summary.status().ToString().c_str());
      return 1;
    }
    double cost =
        AverageDiscoveryCostWithSummary(oracle, *summary, bundle->workload);
    table.AddRow({v.label, FormatDouble(cost, 2), Percent(saving(cost))});
  }
  std::printf(
      "Table 6: comparison against ER model abstraction techniques on MiMI "
      "(size-10 summaries; best-first baseline %s)\n%s\n",
      FormatDouble(best_first, 2).c_str(), table.ToString().c_str());
  std::printf(
      "Paper reference: BalanceSummary 3.90 (62.4%%); TWBK w/o human 9.32 "
      "(10.2%%), with human 4.38 (57.8%%); CAFP w/o human 8.56 (17.5%%), "
      "with human 3.90 (62.4%%) — without human labeling the ER techniques "
      "lose most of the benefit; with it they approach BalanceSummary.\n");
  return 0;
}
