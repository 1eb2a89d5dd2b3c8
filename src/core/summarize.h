#pragma once

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "core/affinity.h"
#include "core/coverage.h"
#include "core/dominance.h"
#include "core/importance.h"
#include "core/summary.h"
#include "schema/schema_graph.h"
#include "stats/annotate.h"
#include "store/fingerprint.h"

namespace ssum {

class ArtifactCache;  // store/artifact_cache.h — warm-start snapshot store

/// Selection algorithm (paper Section 4).
enum class Algorithm : unsigned char {
  kMaxImportance = 0,  ///< Figure 4
  kMaxCoverage,        ///< Figure 6
  kBalanceSummary,     ///< Figure 7
};

const char* AlgorithmName(Algorithm a);

/// MaxCoverage selection strategy: the paper-exact Figure 6 search (with its
/// budgeted greedy fallback) or the approximate lazy-greedy engine over
/// sketched coverage rows (core/approx_cover.h). Approximate selection is
/// near-linear and reaches schema sizes where the exact path is infeasible;
/// tests/test_approx.cc checks its quality at >= 0.95x exact.
enum class SummaryMode : unsigned char {
  kExact = 0,
  kApprox,
};

const char* SummaryModeName(SummaryMode m);

struct SummarizeOptions {
  ImportanceOptions importance;
  AffinityOptions affinity;
  CoverageOptions coverage;
  /// MaxCoverage enumerates all C(|CS|, K) candidate sets exactly when the
  /// count is at most this budget; otherwise it falls back to a greedy
  /// marginal-coverage maximizer (DESIGN.md interpretation notes). The
  /// enumeration is sharded across threads (rank-range decomposition with a
  /// deterministic reduction), which is what makes a budget this size
  /// practical; it was 20000 when the scan was serial.
  uint64_t max_coverage_enumeration_budget = 200000;
  /// MaxCoverage strategy; kApprox routes SelectMaxCoverage through the
  /// sketched lazy-greedy engine instead of the enumeration above.
  SummaryMode mode = SummaryMode::kExact;
  /// Sketch-truncation knob for kApprox (see ApproxCoverOptions::epsilon):
  /// each candidate keeps the dominant coverage entries holding at least
  /// (1 - epsilon) of its row mass. Ignored in kExact mode.
  double approx_epsilon = 0.1;
  /// Thread count for the parallel kernels (matrix construction, MaxCoverage
  /// enumeration, concurrent context build). Results are bit-identical for
  /// every thread count; see docs/performance.md.
  ParallelOptions parallel;
};

/// Shared per-schema computation cache. All algorithm entry points accept a
/// prepared context so that repeated summarizations (size sweeps, parameter
/// studies) reuse the expensive matrices. With more than one thread the
/// importance iteration and the two all-pairs matrices are computed
/// concurrently once EdgeMetrics is ready (they only depend on it);
/// dominance follows after coverage.
class SummarizerContext {
 public:
  SummarizerContext(const SchemaGraph& graph, const Annotations& annotations,
                    const SummarizeOptions& options = {});

  /// Warm-start construction: consults `cache` (may be null) for the two
  /// all-pairs matrices — keyed by the schema, statistics, and
  /// matrix-relevant option fingerprints — before computing, and installs
  /// whatever it had to compute. Cache failures of any kind only cost the
  /// recompute; the result is bit-identical with and without a cache.
  SummarizerContext(const SchemaGraph& graph, const Annotations& annotations,
                    const SummarizeOptions& options, ArtifactCache* cache);

  /// Construction that propagates instead of aborting: an expired
  /// `options.parallel.deadline` surfaces as kDeadlineExceeded (checked on
  /// entry and between matrix row blocks). The legacy constructors wrap this
  /// and abort, matching their historical contract. `graph` and
  /// `annotations` must outlive the context.
  static Result<SummarizerContext> Make(const SchemaGraph& graph,
                                        const Annotations& annotations,
                                        const SummarizeOptions& options = {},
                                        ArtifactCache* cache = nullptr);

  /// Incremental construction from a prior version's context: instead of the
  /// all-pairs matrix computations, the base matrices are *patched* — only
  /// walk rows inside the dirty-frontier closure of the elements whose
  /// statistics changed (DirtyMetricElements) are re-walked against the new
  /// metrics (AffinityMatrix::TryPatch / CoverageMatrix::TryPatch). The
  /// result is bit-identical to Make(base.graph(), annotations, ...); past
  /// `patch.max_dirty_fraction` the patchers fall back to the full
  /// computation on their own. `annotations` must describe the same schema
  /// as `base` (FailedPrecondition otherwise — callers fall back to Make)
  /// and must outlive the context, as must `base`'s graph. Patched matrices
  /// are installed in `cache` (may be null) under the *new* content key, so
  /// later cold runs of the new version hit. `affinity_stats` /
  /// `coverage_stats` (each may be null) report rows patched vs re-walked.
  static Result<SummarizerContext> MakeIncremental(
      const SummarizerContext& base, const Annotations& annotations,
      ArtifactCache* cache = nullptr, const MatrixPatchOptions& patch = {},
      MatrixPatchStats* affinity_stats = nullptr,
      MatrixPatchStats* coverage_stats = nullptr);

  const SchemaGraph& graph() const { return *graph_; }
  const Annotations& annotations() const { return *annotations_; }
  const SummarizeOptions& options() const { return options_; }
  const EdgeMetrics& metrics() const { return metrics_; }
  const ImportanceResult& importance() const { return importance_; }
  const AffinityMatrix& affinity() const { return affinity_; }
  const CoverageMatrix& coverage() const { return coverage_; }
  const DominanceResult& dominance() const { return dominance_; }

  /// How many of the two matrices the constructor loaded from the cache
  /// (0 = cold, 2 = fully warm). Benches assert warm runs compute nothing.
  int matrices_loaded_from_cache() const { return matrices_from_cache_; }

  /// Clears the deadline captured at construction. A pooled context built
  /// under one request's budget (serve/server.cc) would otherwise poison
  /// every later selection with an expired deadline.
  void ResetDeadline() { options_.parallel.deadline = Deadline::Unlimited(); }

 private:
  SummarizerContext() = default;  // Make()/Init() fill every member
  Status Init(const SchemaGraph& graph, const Annotations& annotations,
              const SummarizeOptions& options, ArtifactCache* cache);

  const SchemaGraph* graph_ = nullptr;
  const Annotations* annotations_ = nullptr;
  SummarizeOptions options_;
  EdgeMetrics metrics_;
  ImportanceResult importance_;
  AffinityMatrix affinity_;
  CoverageMatrix coverage_;
  DominanceResult dominance_;
  int matrices_from_cache_ = 0;
};

/// Figure 4: the K elements with the highest importance (root excluded).
Result<std::vector<ElementId>> SelectMaxImportance(
    const SummarizerContext& context, size_t k);

/// Figure 6: the K-element set with the highest summary coverage among
/// mutually non-dominated candidates — exact enumeration within budget,
/// greedy otherwise.
Result<std::vector<ElementId>> SelectMaxCoverage(
    const SummarizerContext& context, size_t k);

/// Figure 7: important elements filtered by coverage dominance.
Result<std::vector<ElementId>> SelectBalanced(const SummarizerContext& context,
                                              size_t k);

/// Selects with the requested algorithm and assembles the full summary
/// (group assignment + abstract links).
Result<SchemaSummary> Summarize(const SummarizerContext& context, size_t k,
                                Algorithm algorithm = Algorithm::kBalanceSummary);

/// Cache key of a finished summary: everything the selection depends on —
/// schema, statistics, matrix-relevant options, selection options, K and
/// the algorithm.
Fingerprint SummaryFingerprint(const SchemaGraph& graph,
                               const Annotations& annotations,
                               const SummarizeOptions& options, size_t k,
                               Algorithm algorithm);

/// One-shot convenience: builds a context and summarizes. With a `cache`, a
/// cached summary is returned without building a context at all (zero
/// annotation/matrix/selection computation); otherwise the context
/// warm-starts its matrices from `cache` and the computed summary is
/// installed for the next invocation.
Result<SchemaSummary> Summarize(const SchemaGraph& graph,
                                const Annotations& annotations, size_t k,
                                Algorithm algorithm = Algorithm::kBalanceSummary,
                                const SummarizeOptions& options = {},
                                ArtifactCache* cache = nullptr);

}  // namespace ssum
