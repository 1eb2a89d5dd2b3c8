#include "eval/experiment.h"

namespace ssum {

Result<QueryDiscoveryRow> RunQueryDiscoveryRow(const DatasetBundle& bundle,
                                               const SummarizeOptions& options) {
  QueryDiscoveryRow row;
  row.dataset = bundle.name;
  row.summary_size = bundle.paper_summary_size;
  row.summary_fraction = static_cast<double>(row.summary_size) /
                         static_cast<double>(bundle.schema.size());
  row.rounds = bundle.workload.size();
  DiscoveryOracle oracle(bundle.schema);
  row.depth_first = AverageDiscoveryCost(oracle, bundle.workload,
                                         TraversalStrategy::kDepthFirst);
  row.breadth_first = AverageDiscoveryCost(oracle, bundle.workload,
                                           TraversalStrategy::kBreadthFirst);
  row.best_first = AverageDiscoveryCost(oracle, bundle.workload,
                                        TraversalStrategy::kBestFirst);
  SchemaSummary summary;
  SSUM_ASSIGN_OR_RETURN(summary,
                        Summarize(bundle.schema, bundle.annotations,
                                  row.summary_size, Algorithm::kBalanceSummary,
                                  options));
  row.with_summary =
      AverageDiscoveryCostWithSummary(oracle, summary, bundle.workload);
  row.saving = row.best_first > 0 ? 1.0 - row.with_summary / row.best_first
                                  : 0.0;
  return row;
}

Result<BalanceRow> RunBalanceRow(const DatasetBundle& bundle,
                                 const SummarizeOptions& options) {
  BalanceRow row;
  row.dataset = bundle.name;
  row.summary_size = bundle.paper_summary_size;
  DiscoveryOracle oracle(bundle.schema);
  row.best_first = AverageDiscoveryCost(oracle, bundle.workload,
                                        TraversalStrategy::kBestFirst);
  auto context = SummarizerContext::Make(bundle.schema, bundle.annotations,
                                        options);
  SSUM_RETURN_NOT_OK(context.status());
  for (Algorithm alg : {Algorithm::kBalanceSummary, Algorithm::kMaxImportance,
                        Algorithm::kMaxCoverage}) {
    SchemaSummary summary;
    SSUM_ASSIGN_OR_RETURN(summary, Summarize(*context, row.summary_size, alg));
    double cost =
        AverageDiscoveryCostWithSummary(oracle, summary, bundle.workload);
    switch (alg) {
      case Algorithm::kBalanceSummary:
        row.balance = cost;
        break;
      case Algorithm::kMaxImportance:
        row.max_importance = cost;
        break;
      case Algorithm::kMaxCoverage:
        row.max_coverage = cost;
        break;
    }
  }
  return row;
}

Result<std::vector<SizeSweepPoint>> RunSizeSweep(
    const DatasetBundle& bundle, const std::vector<size_t>& sizes,
    const SummarizeOptions& options) {
  DiscoveryOracle oracle(bundle.schema);
  auto context = SummarizerContext::Make(bundle.schema, bundle.annotations,
                                        options);
  SSUM_RETURN_NOT_OK(context.status());
  std::vector<SizeSweepPoint> out;
  for (size_t k : sizes) {
    SchemaSummary summary;
    SSUM_ASSIGN_OR_RETURN(summary,
                          Summarize(*context, k, Algorithm::kBalanceSummary));
    out.push_back(
        {k, AverageDiscoveryCostWithSummary(oracle, summary, bundle.workload)});
  }
  return out;
}

Result<StructureVsDataRow> RunStructureVsDataRow(
    const DatasetBundle& bundle, const SummarizeOptions& options) {
  StructureVsDataRow row;
  row.dataset = bundle.name;
  row.summary_size = bundle.paper_summary_size;
  DiscoveryOracle oracle(bundle.schema);

  // One BalanceSummary discovery cost per statistics/options variant.
  auto cost = [&](const Annotations& annotations,
                  const SummarizeOptions& variant) -> Result<double> {
    SchemaSummary summary;
    SSUM_ASSIGN_OR_RETURN(summary,
                          Summarize(bundle.schema, annotations,
                                    row.summary_size,
                                    Algorithm::kBalanceSummary, variant));
    return AverageDiscoveryCostWithSummary(oracle, summary, bundle.workload);
  };
  // Balanced: p = 0.5 over the real annotations.
  SSUM_ASSIGN_OR_RETURN(row.balanced, cost(bundle.annotations, options));
  // Fully data driven: p = 1 (importance == cardinality).
  SummarizeOptions data_options = options;
  data_options.importance.neighborhood_factor = 1.0;
  SSUM_ASSIGN_OR_RETURN(row.data_driven,
                        cost(bundle.annotations, data_options));
  // Fully schema driven: RC = 1 everywhere, I0 = 1.
  SummarizeOptions schema_options = options;
  schema_options.importance.cardinality_init = false;
  SSUM_ASSIGN_OR_RETURN(row.schema_driven,
                        cost(Annotations::Uniform(bundle.schema),
                             schema_options));
  return row;
}

Result<double> EvaluateSummaryCost(const DatasetBundle& bundle,
                                   const SchemaSummary& summary) {
  if (summary.schema != &bundle.schema) {
    return Status::InvalidArgument("summary built for a different schema");
  }
  DiscoveryOracle oracle(bundle.schema);
  return AverageDiscoveryCostWithSummary(oracle, summary, bundle.workload);
}

}  // namespace ssum
