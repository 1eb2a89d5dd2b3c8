#pragma once

#include "common/parallel.h"
#include "common/result.h"
#include "core/path_engine.h"
#include "schema/schema_graph.h"
#include "stats/annotate.h"

namespace ssum {

struct CoverageOptions {
  /// Walk-length bound for the max-product search (see path_engine.h).
  uint32_t max_steps = 16;
};

/// Formula 3's per-step walk factors: the factor for u -> v (adjacency entry
/// i at u) is edge_affinity(u -> v) * W(v -> u), W read through the mirror
/// index. CoverageMatrix walks these without dividing by the step count.
EdgeFactors CoverageStepFactors(const SchemaGraph& graph,
                                const EdgeMetrics& metrics);

/// Dense all-pairs element coverage (paper Formula 3):
///
///   C(a->b) = Card_b * max over paths of
///               prod_j  A(e_{j-1} -> e_j) * W(e_j -> e_{j-1})
///   C(a->a) = Card_a
///
/// where each step multiplies the direct-edge affinity toward the next
/// element by the neighbor weight the next element gives back to the
/// previous one ("competition", Section 3.2).
class CoverageMatrix {
 public:
  /// C(by -> of): how much `by` covers `of`.
  double At(ElementId by, ElementId of) const { return m_.At(by, of); }

  size_t size() const { return m_.size(); }

  /// Underlying dense storage (for byte-level determinism checks).
  const SquareMatrix& matrix() const { return m_; }

  /// Rows (one MaxProductWalks per source) are computed in parallel per
  /// `parallel`; any thread count yields bit-identical matrices. An expired
  /// `parallel.deadline` aborts between row blocks with kDeadlineExceeded.
  static Result<CoverageMatrix> TryCompute(const SchemaGraph& graph,
                                           const Annotations& annotations,
                                           const EdgeMetrics& metrics,
                                           const CoverageOptions& options = {},
                                           const ParallelOptions& parallel = {});

  /// TryCompute for callers without a deadline; aborts on failure (the
  /// kernels themselves cannot fail).
  static CoverageMatrix Compute(const SchemaGraph& graph,
                                const Annotations& annotations,
                                const EdgeMetrics& metrics,
                                const CoverageOptions& options = {},
                                const ParallelOptions& parallel = {});

  /// Incremental recompute from a base matrix: rows inside the
  /// dirty-frontier closure of `dirty_elements` (DirtyMetricElements over
  /// old/new statistics — cardinality changes seed the set too, covering
  /// the card(t) column scaling and the card(s) diagonal) are re-walked
  /// against the *new* annotations/metrics; every other row is copied from
  /// `base`. Bit-identical to TryCompute; falls back to a full TryCompute
  /// past patch.max_dirty_fraction (reported via `stats`, which may be
  /// null). FailedPrecondition when `base` has the wrong order.
  static Result<CoverageMatrix> TryPatch(const SchemaGraph& graph,
                                         const Annotations& annotations,
                                         const EdgeMetrics& metrics,
                                         const CoverageMatrix& base,
                                         std::span<const ElementId> dirty_elements,
                                         const CoverageOptions& options = {},
                                         const ParallelOptions& parallel = {},
                                         const MatrixPatchOptions& patch = {},
                                         MatrixPatchStats* stats = nullptr);

  /// Wraps an externally produced matrix — the warm-start path of the
  /// snapshot store (src/store), which decodes the bit-identical matrix a
  /// previous Compute() persisted.
  static CoverageMatrix FromMatrix(SquareMatrix m) {
    CoverageMatrix c;
    c.m_ = std::move(m);
    return c;
  }

 private:
  SquareMatrix m_;
};

}  // namespace ssum
