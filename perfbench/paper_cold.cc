// paper_cold: one op is a cold pass with no cache over the paper's three
// datasets at paper scale (XMark sf 1, TPC-H sf 0.1, MiMI Jan'06). Each
// dataset is generated and annotated, its context built, and
// MaxImportance, MaxCoverage and BalanceSummary run at the paper's k. The
// matrices are tiny, so ingest dominates: an annotate change shows here,
// and a matrix or dominance change must not.

#include <array>
#include <string>

#include "common/random.h"
#include "datasets/registry.h"
#include "harness.h"

namespace perfbench {

using namespace ssum;

namespace {

constexpr std::array<DatasetKind, 3> kDatasets = {
    DatasetKind::kXMark, DatasetKind::kTpch, DatasetKind::kMimi};

struct Selector {
  Algorithm algorithm;
  const char* span;
  Result<std::vector<ElementId>> (*select)(const SummarizerContext&, size_t);
};
constexpr std::array<Selector, 3> kSelectors = {{
    {Algorithm::kMaxImportance, "core:select.max_importance",
     &SelectMaxImportance},
    {Algorithm::kMaxCoverage, "core:select.max_coverage", &SelectMaxCoverage},
    {Algorithm::kBalanceSummary, "core:select.balanced", &SelectBalanced},
}};

std::string Key(const DatasetBundle& bundle, Algorithm algorithm, size_t k) {
  return std::string("paper/") + bundle.name + "/" + AlgorithmName(algorithm) +
         "/exact/k=" + std::to_string(k);
}

/// One cold pass over one dataset. `regime` (may be null) receives the
/// dataset's regime fields.
bool ColdPass(DatasetKind kind, Trace& trace, Expected& expected,
              Report* report, Report* regime) {
  auto bundle = trace.Span("stats:annotate",
                           [&] { return LoadDataset(kind, 1.0, nullptr); });
  if (!bundle.ok()) {
    report->Fail("LoadDataset: " + bundle.status().ToString());
    return false;
  }
  auto context = trace.Span("core:context.make", [&] {
    return SummarizerContext::Make(bundle->schema, bundle->annotations,
                                   BaseOptions(SummaryMode::kExact));
  });
  if (!context.ok()) {
    report->Fail("Make: " + context.status().ToString());
    return false;
  }
  const size_t k = bundle->paper_summary_size;
  bool ok = true;
  for (const Selector& selector : kSelectors) {
    auto selected = trace.Span(selector.span,
                               [&] { return selector.select(*context, k); });
    if (!selected.ok()) {
      report->Fail("select: " + selected.status().ToString());
      return false;
    }
    const std::string key = Key(*bundle, selector.algorithm, k);
    if (!expected.Check(key, *selected)) {
      report->Fail(key + ": selection differs from the pinned one");
      ok = false;
    }
    auto summary = trace.Span("core:build_summary", [&] {
      return BuildSummary(bundle->schema, context->affinity(),
                          context->coverage(), *selected);
    });
    if (!summary.ok()) {
      report->Fail("BuildSummary: " + summary.status().ToString());
      return false;
    }
  }
  if (regime != nullptr) {
    const std::string prefix = std::string("regime.") + bundle->name + ".";
    const CoveragePath path = MaxCoveragePath(*context, k);
    const double n = static_cast<double>(bundle->schema.size());
    regime->Note(prefix + "schema_elements", n);
    regime->Note(prefix + "data_nodes",
                 static_cast<double>(bundle->data_elements));
    regime->Note(prefix + "k", static_cast<double>(k));
    regime->Note(prefix + "candidates",
                 static_cast<double>(context->dominance().candidates.size()));
    regime->Note(prefix + "combinations_capped",
                 static_cast<double>(path.combinations));
    regime->Note(prefix + "max_coverage_path", path.path);
    regime->Note(prefix + "matrix_bytes", 2 * 8 * n * n);
  }
  return ok;
}

}  // namespace

bool RunPaperCold(const Args& args, Report* report) {
  Expected expected(args.expected_dir + "/paper.txt", args.pin);
  if (!expected.Load()) {
    report->Fail("cannot read " + args.expected_dir + "/paper.txt");
    return false;
  }
  if (args.pin) {
    Trace off(false);
    for (DatasetKind kind : kDatasets) {
      if (!ColdPass(kind, off, expected, report, nullptr)) return false;
    }
    return expected.Write();
  }

  // Set-up is the first cold pass of the process (it pays page faults and
  // allocator growth), repeated three times; it also records the regime.
  for (int rep = 0; rep < 3; ++rep) {
    Trace off(false);
    const auto t0 = Clock::now();
    Report regime;
    for (DatasetKind kind : kDatasets) {
      if (!ColdPass(kind, off, expected, report, &regime)) return false;
    }
    report->AddSetup(t0);
    if (rep == 0) report->record = regime.record;
  }

  // The seed fixes the order in which each op visits the datasets.
  TimedOp op;
  op.results_per_op = kDatasets.size() * kSelectors.size();
  op.run = [&](uint64_t index, Trace& trace) {
    std::array<DatasetKind, 3> order = kDatasets;
    Rng rng(args.seed * 1000003 + index);
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBounded(i + 1)]);
    }
    bool ok = true;
    for (DatasetKind kind : order) {
      ok = ColdPass(kind, trace, expected, report, nullptr) && ok;
    }
    return ok;
  };
  Trace trace(args.trace);
  const uint64_t traced_ops = RunTimed(args, op, &trace, report);
  if (!args.trace) return true;

  // Layer split: spans per op, then one probe per dataset for the stages
  // SummarizerContext::Make runs internally.
  const double ops = static_cast<double>(traced_ops);
  AddSpanLayers(trace, ops, report);
  auto& layer = report->layer;
  double probed = 0;
  double nodes = 0;
  for (DatasetKind kind : kDatasets) {
    auto bundle = LoadDataset(kind, 1.0, nullptr);
    if (!bundle.ok()) return false;
    nodes += static_cast<double>(bundle->data_elements);
    probed += ProbeContextStages(bundle->schema, bundle->annotations, 1, 1,
                                 report);
    auto context = SummarizerContext::Make(bundle->schema, bundle->annotations,
                                           BaseOptions(SummaryMode::kExact));
    if (!context.ok()) return false;
    const CoveragePath path = MaxCoveragePath(*context, bundle->paper_summary_size);
    layer[std::string("select.max_coverage.") + path.path + "_calls"] += 1;
    layer["select.max_coverage.combinations"] = std::max(
        layer["select.max_coverage.combinations"],
        static_cast<double>(path.combinations));
  }
  layer["annotate.nodes"] = nodes;
  layer["annotate.mnodes_per_s"] = nodes / (layer["annotate.ms"] * 1e3);
  layer["trace.accounted_ratio"] = probed / layer["context.make.ms"];
  return true;
}

}  // namespace perfbench
