#include "core/affinity.h"

#include <numeric>

#include "common/logging.h"

namespace ssum {

namespace {

/// The walk behind TryCompute and TryPatch: re-walks `rows` of `m` over the
/// step factors of `metrics` and applies the Formula 2 diagonal.
Result<AffinityMatrix> WalkAffinityRows(const SchemaGraph& graph,
                                        const EdgeMetrics& metrics,
                                        const AffinityOptions& options,
                                        const ParallelOptions& parallel,
                                        std::span<const ElementId> rows,
                                        SquareMatrix m) {
  WalkSearchOptions walk;
  walk.max_steps = options.max_steps;
  walk.divide_by_steps = true;
  const WalkPlan plan = WalkPlan::Build(graph, metrics.edge_affinity);
  SSUM_RETURN_NOT_OK(WalkRows(plan, rows, walk, m, parallel,
                              [](ElementId s, std::span<double> row) {
                                row[s] = 1.0;  // Formula 2 special case
                              }));
  return AffinityMatrix::FromMatrix(std::move(m));
}

}  // namespace

Result<AffinityMatrix> AffinityMatrix::TryCompute(
    const SchemaGraph& graph, const EdgeMetrics& metrics,
    const AffinityOptions& options, const ParallelOptions& parallel) {
  std::vector<ElementId> rows(graph.size());
  std::iota(rows.begin(), rows.end(), ElementId{0});
  return WalkAffinityRows(graph, metrics, options, parallel, rows,
                          SquareMatrix(graph.size(), 0.0));
}

Result<AffinityMatrix> AffinityMatrix::TryPatch(
    const SchemaGraph& graph, const EdgeMetrics& metrics,
    const AffinityMatrix& base, std::span<const ElementId> dirty_elements,
    const AffinityOptions& options, const ParallelOptions& parallel,
    const MatrixPatchOptions& patch, MatrixPatchStats* stats) {
  if (base.size() != graph.size()) {
    return Status::FailedPrecondition(
        "AffinityMatrix::TryPatch: base matrix order " +
        std::to_string(base.size()) + " does not match schema order " +
        std::to_string(graph.size()));
  }
  const auto rows = PatchRows(graph, dirty_elements, options.max_steps, patch,
                              stats);
  if (!rows) return TryCompute(graph, metrics, options, parallel);
  // Rows outside the closure keep their base bytes.
  auto out = WalkAffinityRows(graph, metrics, options, parallel, *rows,
                              base.m_);
  if (out.ok() && stats != nullptr) stats->patched = true;
  return out;
}

AffinityMatrix AffinityMatrix::Compute(const SchemaGraph& graph,
                                       const EdgeMetrics& metrics,
                                       const AffinityOptions& options,
                                       const ParallelOptions& parallel) {
  auto out = TryCompute(graph, metrics, options, parallel);
  SSUM_CHECK(out.ok(), out.status().ToString());
  return std::move(*out);
}

}  // namespace ssum
