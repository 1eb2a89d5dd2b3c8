// wide_schema: one op is an exploration session on a ~2k-element scenario
// with light data (the comprehensive.scn knobs, a few thousand units).
// Affinity, coverage, dominance, the MaxCoverage greedy fallback, CELF and
// BuildSummary do almost all the work; this is where dominance, greedy and
// dense-matrix changes show. Near 2k elements |CS| keeps MaxCoverage on the
// greedy path; at 4k dominance alone takes seconds.

#include <optional>
#include <string>

#include "datasets/scenario.h"
#include "harness.h"

namespace perfbench {

using namespace ssum;

namespace {

/// Distinct scenario inputs; the seed picks one, and each has pinned
/// selections.
constexpr uint64_t kVariants = 8;
constexpr size_t kSmallK = 10;
constexpr size_t kLargeK = 16;

ScenarioSpec WideSpec(uint64_t variant) {
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
  // Light data: the schema knobs above load the matrices; a small per-unit
  // node budget keeps annotation a minor cost.
  spec.max_unit_nodes = 512;
  spec.summary_k = kLargeK;
  // Variants share the schema and differ in their data: the mutation layer
  // redraws the set cardinalities of a share of the units.
  spec.mutate_seed = variant + 1;
  spec.mutate_fraction = 0.5;
  return spec;
}

struct Selector {
  Algorithm algorithm;
  const char* span;
  Result<std::vector<ElementId>> (*select)(const SummarizerContext&, size_t);
};
constexpr Selector kImportance = {Algorithm::kMaxImportance,
                                  "core:select.max_importance",
                                  &SelectMaxImportance};
constexpr Selector kBalanced = {Algorithm::kBalanceSummary,
                                "core:select.balanced", &SelectBalanced};
constexpr Selector kCoverage = {Algorithm::kMaxCoverage,
                                "core:select.max_coverage", &SelectMaxCoverage};

struct Session {
  Session(uint64_t variant, const ScenarioDataset* dataset,
          const Annotations* annotations, Expected* expected, Report* report)
      : variant(variant),
        dataset(dataset),
        annotations(annotations),
        expected(expected),
        report(report) {}

  uint64_t variant;
  const ScenarioDataset* dataset;
  const Annotations* annotations;
  Expected* expected;
  Report* report;
  /// Per-part times of untraced sessions.
  Samples cold_ms, sweep_ms, approx_ms;
  /// MaxCoverage path of the exact context at each k, set by the first run.
  std::vector<std::string> exact_paths;

  /// Selects and builds one summary, checking the selection against the pin.
  bool Summary(const SummarizerContext& context, const Selector& selector,
               size_t k, Trace& trace) {
    auto selected =
        trace.Span(selector.span, [&] { return selector.select(context, k); });
    if (!selected.ok()) {
      report->Fail("select: " + selected.status().ToString());
      return false;
    }
    const std::string key =
        "wide/v" + std::to_string(variant) + "/" +
        AlgorithmName(selector.algorithm) + "/" +
        SummaryModeName(context.options().mode) + "/k=" + std::to_string(k);
    bool ok = expected->Check(key, *selected);
    if (!ok) report->Fail(key + ": selection differs from the pinned one");
    auto summary = trace.Span("core:build_summary", [&] {
      return BuildSummary(dataset->schema(), context.affinity(),
                          context.coverage(), *selected);
    });
    if (!summary.ok()) {
      report->Fail("BuildSummary: " + summary.status().ToString());
      return false;
    }
    return ok;
  }

  Result<SummarizerContext> Build(SummaryMode mode, Trace& trace) {
    return trace.Span("core:context.make", [&] {
      return SummarizerContext::Make(dataset->schema(), *annotations,
                                     BaseOptions(mode));
    });
  }

  void NoteRegime(const SummarizerContext& exact) {
    const double n = static_cast<double>(dataset->schema().size());
    report->Note("regime.variant", static_cast<double>(variant));
    report->Note("regime.schema_elements", n);
    report->Note("regime.units", static_cast<double>(dataset->NumUnits()));
    report->Note("regime.data_nodes",
                 static_cast<double>(annotations->TotalNodes()));
    report->Note("regime.candidates",
                 static_cast<double>(exact.dominance().candidates.size()));
    for (size_t k : {kSmallK, kLargeK}) {
      const CoveragePath path = MaxCoveragePath(exact, k);
      const std::string prefix = "regime.k" + std::to_string(k) + ".";
      report->Note(prefix + "combinations_capped",
                   static_cast<double>(path.combinations));
      report->Note(prefix + "max_coverage_path", path.path);
      exact_paths.push_back(path.path);
    }
    report->Note("regime.matrix_bytes", 2 * 8 * n * n);
  }

  bool Run(Trace& trace) {
    // (1) cold exact-mode build plus the default BalanceSummary.
    auto t0 = Clock::now();
    auto exact = Build(SummaryMode::kExact, trace);
    if (!exact.ok()) {
      report->Fail("Make: " + exact.status().ToString());
      return false;
    }
    bool ok = Summary(*exact, kBalanced, kLargeK, trace);
    const double part1 = MsSince(t0);
    if (std::string(MaxCoveragePath(*exact, kLargeK).path) != "greedy") {
      report->Fail("MaxCoverage left the greedy path at k=16");
      ok = false;
    }
    if (exact_paths.empty()) NoteRegime(*exact);
    // (2) resummarize sweep on the same context.
    t0 = Clock::now();
    for (const Selector& selector : {kImportance, kBalanced, kCoverage}) {
      for (size_t k : {kSmallK, kLargeK}) {
        ok = Summary(*exact, selector, k, trace) && ok;
      }
    }
    const double part2 = MsSince(t0);
    // (3) cold approx-mode build, (4) approx MaxCoverage at both k.
    t0 = Clock::now();
    auto approx = Build(SummaryMode::kApprox, trace);
    if (!approx.ok()) {
      report->Fail("Make: " + approx.status().ToString());
      return false;
    }
    for (size_t k : {kSmallK, kLargeK}) {
      ok = Summary(*approx, kCoverage, k, trace) && ok;
    }
    const double part34 = MsSince(t0);
    if (!trace.enabled()) {
      cold_ms.Add(part1);
      sweep_ms.Add(part2);
      approx_ms.Add(part34);
    }
    return ok;
  }
};

}  // namespace

bool RunWideSchema(const Args& args, Report* report) {
  Expected expected(args.expected_dir + "/wide.txt", args.pin);
  if (!expected.Load()) {
    report->Fail("cannot read " + args.expected_dir + "/wide.txt");
    return false;
  }
  // Input generation: scenario schema and its annotations.
  auto make_input = [&](uint64_t variant, std::optional<ScenarioDataset>* ds,
                        Annotations* annotations) {
    auto made = ScenarioDataset::Make(WideSpec(variant));
    if (!made.ok()) return false;
    ds->emplace(std::move(*made));
    auto annotated = AnnotateSchemaSharded(*(*ds)->MakeShardedSource());
    if (!annotated.ok()) return false;
    *annotations = std::move(*annotated);
    return true;
  };

  if (args.pin) {
    for (uint64_t variant = 0; variant < kVariants; ++variant) {
      std::optional<ScenarioDataset> ds;
      Annotations annotations;
      if (!make_input(variant, &ds, &annotations)) return false;
      Session session(variant, &*ds, &annotations, &expected, report);
      Trace off(false);
      if (!session.Run(off)) return false;
    }
    return expected.Write();
  }

  const uint64_t variant = args.seed % kVariants;
  std::optional<ScenarioDataset> ds;
  Annotations annotations;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    if (!make_input(variant, &ds, &annotations)) {
      report->Fail("scenario generation failed");
      return false;
    }
    report->AddSetup(t0);
  }
  Session session(variant, &*ds, &annotations, &expected, report);

  TimedOp op;
  op.results_per_op = 9;
  op.run = [&](uint64_t, Trace& trace) { return session.Run(trace); };
  Trace trace(args.trace);
  const uint64_t traced_ops = RunTimed(args, op, &trace, report);
  if (!args.trace) {
    report->Note("cold_summary_ms", session.cold_ms.Median());
    report->Note("resummarize_sweep_ms", session.sweep_ms.Median());
    report->Note("approx_summary_ms", session.approx_ms.Median());
    return true;
  }

  const double ops = static_cast<double>(traced_ops);
  AddSpanLayers(trace, ops, report);
  auto& layer = report->layer;
  // Both builds run the same stages on the same input.
  const double probed =
      ProbeContextStages(ds->schema(), annotations, 2, 2, report);
  auto approx = SummarizerContext::Make(ds->schema(), annotations,
                                        BaseOptions(SummaryMode::kApprox));
  if (!approx.ok()) return false;
  for (size_t k : {kSmallK, kLargeK}) {
    ProbeApproxStages(*approx, k, 1, report);
    layer["select.max_coverage.approx_calls"] += 1;
  }
  for (const std::string& path : session.exact_paths) {
    layer["select.max_coverage." + path + "_calls"] += 1;
  }
  layer["select.max_coverage.combinations"] =
      static_cast<double>(MaxCoveragePath(*approx, kLargeK).combinations);
  layer["trace.accounted_ratio"] = probed / layer["context.make.ms"];
  return true;
}

}  // namespace perfbench
