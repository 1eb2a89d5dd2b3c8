// Data-evolution demo on the MiMI substrate: summaries adapt when the data
// distribution shifts (the October 2005 protein-domain import) yet remain
// stable for the schema's enduring core.
//
//   ./mimi_evolution [scale]      (default 0.05 for a quick run)

#include <cstdio>
#include <cstdlib>

#include "core/summarize.h"
#include "datasets/mimi.h"
#include "eval/agreement.h"
#include "stats/annotate.h"

using namespace ssum;

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 0.05;
  const MimiVersion versions[] = {MimiVersion::kApr2004,
                                  MimiVersion::kJan2005,
                                  MimiVersion::kJan2006};
  std::vector<std::vector<ElementId>> selections;
  const SchemaGraph* schema = nullptr;
  std::vector<MimiDataset> datasets;
  datasets.reserve(3);
  for (MimiVersion v : versions) {
    MimiParams params;
    params.version = v;
    params.scale = scale;
    datasets.emplace_back(params);
  }
  for (size_t i = 0; i < datasets.size(); ++i) {
    const MimiDataset& ds = datasets[i];
    schema = &ds.schema();
    auto stream = ds.MakeStream();
    auto ann = AnnotateSchema(*stream);
    if (!ann.ok()) {
      std::fprintf(stderr, "annotation failed: %s\n",
                   ann.status().ToString().c_str());
      return 1;
    }
    CountingSink counter;
    (void)stream->Accept(&counter);
    auto context = SummarizerContext::Make(ds.schema(), *ann).ValueOrDie();
    auto sel = SelectBalanced(context, 10);
    if (!sel.ok()) {
      std::fprintf(stderr, "summarize failed: %s\n",
                   sel.status().ToString().c_str());
      return 1;
    }
    std::printf("%s: %llu data nodes; size-10 summary:\n",
                MimiVersionName(versions[i]),
                static_cast<unsigned long long>(counter.nodes()));
    for (ElementId e : *sel) {
      std::printf("  %s\n", ds.schema().PathOf(e).c_str());
    }
    std::printf("\n");
    selections.push_back(std::move(*sel));
  }
  (void)schema;
  std::printf("summary agreement across versions (size 10):\n");
  std::printf("  Apr 2004 vs Jan 2005: %.0f%%\n",
              100 * SummaryAgreement(selections[0], selections[1], 10));
  std::printf("  Apr 2004 vs Jan 2006: %.0f%%\n",
              100 * SummaryAgreement(selections[0], selections[2], 10));
  std::printf("  Jan 2005 vs Jan 2006: %.0f%%\n",
              100 * SummaryAgreement(selections[1], selections[2], 10));
  std::printf(
      "\nThe Jan-2006 summary may differ where the domain import shifted "
      "the data distribution — the paper argues this adaptivity is a "
      "feature, not a bug (Section 3.3).\n");
  return 0;
}
