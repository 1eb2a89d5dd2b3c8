#include "core/coverage.h"

#include <numeric>

#include "common/logging.h"

namespace ssum {

namespace {

/// Step factor for u -> v (adjacency entry i at u):
///   edge_affinity(u->v) * W(v->u)
/// where W(v->u) is read through the mirror index.
EdgeFactors CoverageStepFactors(const SchemaGraph& graph,
                                const EdgeMetrics& metrics) {
  EdgeFactors factors(graph.size());
  for (ElementId u = 0; u < graph.size(); ++u) {
    const auto& nbrs = graph.neighbors(u);
    factors[u].resize(nbrs.size());
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const ElementId v = nbrs[i].other;
      const uint32_t j = metrics.mirror[u][i];
      factors[u][i] = metrics.edge_affinity[u][i] * metrics.w[v][j];
    }
  }
  return factors;
}

/// The walk behind TryCompute and TryPatch: re-walks `rows` of `m` over the
/// coverage step factors of `metrics`, then scales each row by card(t) in
/// place and sets the card(s) diagonal (Formula 3).
Result<CoverageMatrix> WalkCoverageRows(const SchemaGraph& graph,
                                        const Annotations& annotations,
                                        const EdgeMetrics& metrics,
                                        const CoverageOptions& options,
                                        const ParallelOptions& parallel,
                                        std::span<const ElementId> rows,
                                        SquareMatrix m) {
  WalkSearchOptions walk;
  walk.max_steps = options.max_steps;
  walk.divide_by_steps = false;
  const WalkPlan plan =
      WalkPlan::Build(graph, CoverageStepFactors(graph, metrics));
  SSUM_RETURN_NOT_OK(WalkRows(
      plan, rows, walk, m, parallel, [&](ElementId s, std::span<double> row) {
        for (size_t t = 0; t < row.size(); ++t) {
          row[t] *= static_cast<double>(
              annotations.card(static_cast<ElementId>(t)));
        }
        row[s] = static_cast<double>(annotations.card(s));  // special case
      }));
  return CoverageMatrix::FromMatrix(std::move(m));
}

}  // namespace

Result<CoverageMatrix> CoverageMatrix::TryCompute(
    const SchemaGraph& graph, const Annotations& annotations,
    const EdgeMetrics& metrics, const CoverageOptions& options,
    const ParallelOptions& parallel) {
  std::vector<ElementId> rows(graph.size());
  std::iota(rows.begin(), rows.end(), ElementId{0});
  return WalkCoverageRows(graph, annotations, metrics, options, parallel, rows,
                          SquareMatrix(graph.size(), 0.0));
}

Result<CoverageMatrix> CoverageMatrix::TryPatch(
    const SchemaGraph& graph, const Annotations& annotations,
    const EdgeMetrics& metrics, const CoverageMatrix& base,
    std::span<const ElementId> dirty_elements, const CoverageOptions& options,
    const ParallelOptions& parallel, const MatrixPatchOptions& patch,
    MatrixPatchStats* stats) {
  if (base.size() != graph.size()) {
    return Status::FailedPrecondition(
        "CoverageMatrix::TryPatch: base matrix order " +
        std::to_string(base.size()) + " does not match schema order " +
        std::to_string(graph.size()));
  }
  const auto rows = PatchRows(graph, dirty_elements, options.max_steps, patch,
                              stats);
  if (!rows) {
    return TryCompute(graph, annotations, metrics, options, parallel);
  }
  // Rows outside the closure keep their base bytes.
  auto out = WalkCoverageRows(graph, annotations, metrics, options, parallel,
                              *rows, base.m_);
  if (out.ok() && stats != nullptr) stats->patched = true;
  return out;
}

CoverageMatrix CoverageMatrix::Compute(const SchemaGraph& graph,
                                       const Annotations& annotations,
                                       const EdgeMetrics& metrics,
                                       const CoverageOptions& options,
                                       const ParallelOptions& parallel) {
  auto out = TryCompute(graph, annotations, metrics, options, parallel);
  SSUM_CHECK(out.ok(), out.status().ToString());
  return std::move(*out);
}

}  // namespace ssum
