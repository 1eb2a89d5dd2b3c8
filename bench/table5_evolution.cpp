// Regenerates paper Table 5: stability of automatic summaries across
// archived versions of the MiMI database (data evolution).

#include <cstdio>

#include "common/parallel.h"
#include "common/string_util.h"
#include "core/summarize.h"
#include "datasets/registry.h"
#include "eval/agreement.h"
#include "eval/table_printer.h"

using namespace ssum;

int main(int argc, char** argv) {
  ssum::ConsumeThreadsFlag(&argc, argv);  // --threads N
  const MimiVersion versions[] = {MimiVersion::kApr2004, MimiVersion::kJan2005,
                                  MimiVersion::kJan2006};
  const std::vector<size_t> sizes = {5, 10, 15};
  std::vector<DatasetBundle> bundles;
  // selections[version][size index]
  std::vector<std::vector<std::vector<ElementId>>> selections;
  for (MimiVersion v : versions) {
    auto bundle = LoadMimi(v);
    if (!bundle.ok()) {
      std::fprintf(stderr, "MiMI %s load failed: %s\n", MimiVersionName(v),
                   bundle.status().ToString().c_str());
      return 1;
    }
    auto context =
        SummarizerContext::Make(bundle->schema, bundle->annotations)
            .ValueOrDie();
    std::vector<std::vector<ElementId>> per_size;
    for (size_t k : sizes) {
      auto sel = SelectBalanced(context, k);
      if (!sel.ok()) {
        std::fprintf(stderr, "summarize failed: %s\n",
                     sel.status().ToString().c_str());
        return 1;
      }
      per_size.push_back(std::move(*sel));
    }
    selections.push_back(std::move(per_size));
    bundles.push_back(std::move(*bundle));
  }
  auto change = [&](size_t a, size_t b) {
    double na = static_cast<double>(bundles[a].data_elements);
    double nb = static_cast<double>(bundles[b].data_elements);
    return (nb - na) / nb;  // fraction of the newer database that is new
  };
  TablePrinter table({"", "change%", "5-ele.", "10-ele.", "15-ele."});
  struct Pair {
    const char* label;
    size_t a, b;
  };
  const Pair pairs[] = {{"Apr 04 vs. Jan 05", 0, 1},
                        {"Apr 04 vs. Now", 0, 2},
                        {"Jan 05 vs. Now", 1, 2}};
  for (const Pair& p : pairs) {
    std::vector<std::string> cells{p.label, Percent(change(p.a, p.b))};
    for (size_t i = 0; i < sizes.size(); ++i) {
      cells.push_back(Percent(SummaryAgreement(selections[p.a][i],
                                               selections[p.b][i], sizes[i])));
    }
    table.AddRow(cells);
  }
  std::printf(
      "Table 5: agreement between summaries on different versions of the "
      "MiMI dataset (current = Jan 2006)\n%s\n",
      table.ToString().c_str());
  std::printf(
      "Paper reference: 100%% agreement at size 5 for all pairs; 87-100%% at "
      "sizes 10/15 — summaries remain stable under data evolution, shifting "
      "only to absorb the October 2005 protein-domain import.\n");
  return 0;
}
