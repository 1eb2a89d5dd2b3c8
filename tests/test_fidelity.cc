// Absolute outputs: the paper datasets' selections must equal the ones
// pinned in perfbench/expected/paper.txt, the benchmark's record of them.
// The file is read in place, so the pins have one source of truth; a change
// that moves every path the same way (and so passes every relative check)
// fails here.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/summarize.h"
#include "datasets/registry.h"

namespace ssum {
namespace {

/// Pins file lines: "<key>\t<id>,<id>,..."; '#' starts a comment line.
std::map<std::string, std::vector<ElementId>> LoadPins(const std::string& path) {
  std::map<std::string, std::vector<ElementId>> pins;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    std::vector<ElementId> ids;
    std::istringstream list(line.substr(tab + 1));
    std::string id;
    while (std::getline(list, id, ',')) {
      ids.push_back(static_cast<ElementId>(std::stoul(id)));
    }
    pins[line.substr(0, tab)] = std::move(ids);
  }
  return pins;
}

struct Selector {
  Algorithm algorithm;
  Result<std::vector<ElementId>> (*select)(const SummarizerContext&, size_t);
};

TEST(FidelityTest, PaperSelectionsMatchPins) {
  const auto pins = LoadPins(SSUM_PAPER_PINS);
  ASSERT_EQ(pins.size(), 9u) << "cannot read " << SSUM_PAPER_PINS;
  const Selector selectors[] = {
      {Algorithm::kMaxImportance, &SelectMaxImportance},
      {Algorithm::kMaxCoverage, &SelectMaxCoverage},
      {Algorithm::kBalanceSummary, &SelectBalanced},
  };
  std::map<std::string, int> checked;
  for (DatasetKind kind :
       {DatasetKind::kXMark, DatasetKind::kTpch, DatasetKind::kMimi}) {
    auto bundle = LoadDataset(kind, 1.0);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    const size_t k = bundle->paper_summary_size;
    for (uint32_t threads : {1u, HardwareThreadCount()}) {
      SummarizeOptions options;
      options.parallel.threads = threads;
      auto context =
          SummarizerContext::Make(bundle->schema, bundle->annotations, options);
      ASSERT_TRUE(context.ok()) << context.status().ToString();
      for (const Selector& selector : selectors) {
        const std::string key = "paper/" + bundle->name + "/" +
                                AlgorithmName(selector.algorithm) +
                                "/exact/k=" + std::to_string(k);
        auto selected = selector.select(*context, k);
        ASSERT_TRUE(selected.ok()) << key << ": " << selected.status().ToString();
        const auto pin = pins.find(key);
        ASSERT_NE(pin, pins.end()) << key << " is not pinned";
        EXPECT_EQ(*selected, pin->second) << key << " threads=" << threads;
        ++checked[key];
      }
    }
  }
  // Every pin was checked, at both thread counts.
  EXPECT_EQ(checked.size(), pins.size());
  for (const auto& [key, times] : checked) EXPECT_EQ(times, 2) << key;
}

}  // namespace
}  // namespace ssum
