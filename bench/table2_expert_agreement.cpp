// Regenerates paper Table 2: agreement between automatic summaries and the
// (simulated) expert panels on XMark and MiMI, at sizes 5 / 10 / 15.

#include <cstdio>

#include "common/parallel.h"
#include "core/summarize.h"
#include "datasets/experts.h"
#include "eval/agreement.h"
#include "eval/table_printer.h"
#include "datasets/registry.h"

using namespace ssum;

namespace {

int RunPanel(const char* title, const DatasetBundle& bundle,
             const ExpertPanel& panel) {
  const std::vector<size_t> sizes = {5, 10, 15};
  auto context =
      SummarizerContext::Make(bundle.schema, bundle.annotations).ValueOrDie();
  std::vector<std::vector<ElementId>> autos;
  for (size_t k : sizes) {
    auto sel = SelectBalanced(context, k);
    if (!sel.ok()) {
      std::fprintf(stderr, "summarize failed: %s\n",
                   sel.status().ToString().c_str());
      return 1;
    }
    autos.push_back(std::move(*sel));
  }
  TablePrinter table({title, "5-element", "10-element", "15-element"});
  for (size_t u = 0; u < panel.rankings.size(); ++u) {
    std::vector<std::string> cells{"User " + std::to_string(u + 1) +
                                   " vs. Auto."};
    for (size_t i = 0; i < sizes.size(); ++i) {
      cells.push_back(Percent(SummaryAgreement(panel.SummaryOf(u, sizes[i]),
                                               autos[i], sizes[i])));
    }
    table.AddRow(cells);
  }
  {
    std::vector<std::string> cells{"User Agreement"};
    for (size_t k : sizes) cells.push_back(Percent(PanelAgreement(panel, k)));
    table.AddRow(cells);
  }
  {
    std::vector<std::string> cells{"Consen. vs. Auto."};
    for (size_t i = 0; i < sizes.size(); ++i) {
      cells.push_back(Percent(SummaryAgreement(panel.Consensus(sizes[i]),
                                               autos[i], sizes[i])));
    }
    table.AddRow(cells);
  }
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ssum::ConsumeThreadsFlag(&argc, argv);  // --threads N
  std::printf("Table 2: agreement between automatic and expert summaries\n\n");
  {
    auto bundle = LoadDataset(DatasetKind::kXMark);
    if (!bundle.ok()) {
      std::fprintf(stderr, "XMark load failed: %s\n",
                   bundle.status().ToString().c_str());
      return 1;
    }
    auto panel = XMarkExpertPanel(bundle->schema);
    if (!panel.ok()) {
      std::fprintf(stderr, "panel failed: %s\n",
                   panel.status().ToString().c_str());
      return 1;
    }
    if (RunPanel("XMark", *bundle, *panel)) return 1;
  }
  {
    auto bundle = LoadDataset(DatasetKind::kMimi);
    if (!bundle.ok()) {
      std::fprintf(stderr, "MiMI load failed: %s\n",
                   bundle.status().ToString().c_str());
      return 1;
    }
    auto panel = MimiExpertPanel(bundle->schema);
    if (!panel.ok()) {
      std::fprintf(stderr, "panel failed: %s\n",
                   panel.status().ToString().c_str());
      return 1;
    }
    if (RunPanel("MiMI", *bundle, *panel)) return 1;
  }
  std::printf(
      "Paper reference: XMark user-vs-auto 60-100%% (size 5) tapering to "
      "67-87%% (size 15), user agreement 50-60%%; MiMI user-vs-auto "
      "80-100%% tapering to 67-87%%, user agreement 60-80%%. The expected "
      "shape: auto-vs-expert agreement is no worse than expert-vs-expert "
      "agreement.\n");
  return 0;
}
