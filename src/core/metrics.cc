#include "core/metrics.h"

namespace ssum {

double SummaryImportanceRatio(const SchemaGraph& graph,
                              const std::vector<double>& importance,
                              const SchemaSummary& summary) {
  double total = 0;
  for (ElementId e = 0; e < graph.size(); ++e) total += importance[e];
  if (total <= 0) return 0;
  double in_summary = importance[graph.root()];
  for (ElementId s : summary.abstract_elements) in_summary += importance[s];
  return in_summary / total;
}

double SummaryCoverageValue(const SchemaGraph& graph,
                            const Annotations& annotations,
                            const CoverageMatrix& coverage,
                            const SchemaSummary& summary) {
  double sum = static_cast<double>(annotations.card(graph.root()));
  for (ElementId e = 0; e < graph.size(); ++e) {
    if (e == graph.root()) continue;
    sum += coverage.At(summary.representative[e], e);
  }
  return sum;
}

double SummaryCoverageRatio(const SchemaGraph& graph,
                            const Annotations& annotations,
                            const CoverageMatrix& coverage,
                            const SchemaSummary& summary) {
  double denom = annotations.TotalCard();
  if (denom <= 0) return 0;
  return SummaryCoverageValue(graph, annotations, coverage, summary) / denom;
}

double CoverageOfSet(const SchemaGraph& graph,
                     const AffinityMatrix& affinity,
                     const CoverageMatrix& coverage,
                     const std::vector<ElementId>& set) {
  double sum = 0;
  for (ElementId e = 0; e < graph.size(); ++e) {
    if (e == graph.root()) continue;
    MemberChoice choice;
    bool is_member = false;
    for (ElementId s : set) {
      if (s == e) {
        is_member = true;
        break;
      }
      OfferMember(affinity, coverage, e, s, choice);
    }
    if (is_member) {
      sum += coverage.At(e, e);
    } else if (choice.member != kInvalidElement) {
      sum += choice.coverage;
    }
  }
  return sum;
}

}  // namespace ssum
