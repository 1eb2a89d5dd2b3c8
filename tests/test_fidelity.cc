// Absolute outputs: the paper datasets' selections and the wide scenario's
// variant 0 selections must equal the ones pinned in
// perfbench/expected/paper.txt and perfbench/expected/wide.txt, the
// benchmark's record of them. The files are read in place, so the pins have
// one source of truth; a change that moves every path the same way (and so
// passes every relative check) fails here.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/summarize.h"
#include "datasets/registry.h"
#include "datasets/scenario.h"

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

/// Variant 0 of the benchmark's wide_schema input (perfbench/wide_schema.cc
/// WideSpec): ~2k elements with value links, where dominance, the greedy
/// MaxCoverage fallback and CELF select.
ScenarioSpec WideSpec() {
  ScenarioSpec spec;
  spec.name = "wide";
  spec.seed = 101;
  spec.schema_elements = 2000;
  spec.entity_classes = 24;
  spec.max_depth = 12;
  spec.set_fraction = 0.28;
  spec.value_link_fraction = 0.08;
  spec.instance_units = 4000;
  spec.unit_skew = "zipf";
  spec.zipf_s = 1.2;
  spec.set_mean = 3.5;
  spec.max_unit_nodes = 512;
  spec.summary_k = 16;
  spec.mutate_seed = 1;
  spec.mutate_fraction = 0.5;
  return spec;
}

TEST(FidelityTest, WideSelectionsMatchPins) {
  const auto all_pins = LoadPins(SSUM_WIDE_PINS);
  std::map<std::string, std::vector<ElementId>> pins;
  for (const auto& [key, ids] : all_pins) {
    if (key.starts_with("wide/v0/")) pins[key] = ids;
  }
  ASSERT_EQ(pins.size(), 8u) << "cannot read " << SSUM_WIDE_PINS;
  auto dataset = ScenarioDataset::Make(WideSpec());
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  auto annotations = AnnotateSchemaSharded(*dataset->MakeShardedSource());
  ASSERT_TRUE(annotations.ok()) << annotations.status().ToString();
  struct Mode {
    SummaryMode mode;
    std::vector<Selector> selectors;
  };
  const Mode modes[] = {
      {SummaryMode::kExact,
       {{Algorithm::kMaxImportance, &SelectMaxImportance},
        {Algorithm::kMaxCoverage, &SelectMaxCoverage},
        {Algorithm::kBalanceSummary, &SelectBalanced}}},
      {SummaryMode::kApprox, {{Algorithm::kMaxCoverage, &SelectMaxCoverage}}},
  };
  std::map<std::string, int> checked;
  for (uint32_t threads : {1u, HardwareThreadCount()}) {
    for (const Mode& mode : modes) {
      SummarizeOptions options;
      options.mode = mode.mode;
      options.parallel.threads = threads;
      auto context = SummarizerContext::Make(dataset->schema(), *annotations,
                                             options);
      ASSERT_TRUE(context.ok()) << context.status().ToString();
      for (const Selector& selector : mode.selectors) {
        for (size_t k : {10u, 16u}) {
          const std::string key = std::string("wide/v0/") +
                                  AlgorithmName(selector.algorithm) + "/" +
                                  SummaryModeName(mode.mode) +
                                  "/k=" + std::to_string(k);
          auto selected = selector.select(*context, k);
          ASSERT_TRUE(selected.ok())
              << key << ": " << selected.status().ToString();
          const auto pin = pins.find(key);
          ASSERT_NE(pin, pins.end()) << key << " is not pinned";
          EXPECT_EQ(*selected, pin->second) << key << " threads=" << threads;
          ++checked[key];
        }
      }
    }
  }
  EXPECT_EQ(checked.size(), pins.size());
  for (const auto& [key, times] : checked) EXPECT_EQ(times, 2) << key;
}

}  // namespace
}  // namespace ssum
