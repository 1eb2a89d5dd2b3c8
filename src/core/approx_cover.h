#pragma once

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "core/coverage.h"
#include "schema/schema_graph.h"

namespace ssum {

/// Approximate MaxCoverage engine (ROADMAP "Approximate summarization for
/// huge schemas", following the lazy-greedy/sketching direction of Beg et
/// al.'s scalable graph-summarization approximation).
///
/// The exact Figure 6 search enumerates C(|CS|, K) candidate sets — and even
/// its greedy fallback re-evaluates the full assignment objective
/// (O(n * |set|) per candidate per round). This engine replaces both with:
///
///   1. per-candidate *coverage sketches*: the dominant entries of the
///      candidate's coverage-matrix row, truncated to a (1 - epsilon)
///      fraction of the row's total coverage mass — marginal gains then cost
///      O(sketch) instead of O(n);
///   2. deterministic *near-duplicate pruning*: a candidate whose sketch is
///      entirely covered at least as well by a stronger candidate can never
///      contribute a better marginal gain, and is dropped before selection;
///   3. *lazy-greedy (CELF) selection*: submodularity of the sketched
///      objective makes cached marginal gains upper bounds, so each round
///      only re-evaluates candidates whose cached bound still beats the heap
///      top. Ties break toward the smaller element id.
///
/// The sketched objective F(S) = sum_e max_{s in S} sketch_s[e] is monotone
/// submodular; the selected set approximates the paper's assignment-based
/// summary coverage, and tests/test_approx.cc checks the end-to-end quality
/// at >= 0.95x the exact selection on the paper's three datasets.
///
/// Determinism: sketch construction is parallel with one writer per
/// candidate, pruning and selection are serial — results are bit-identical
/// for every thread count and across repeated runs (tests/test_approx.cc,
/// replayed under TSAN).
struct ApproxCoverOptions {
  /// Sketch-truncation knob: each candidate's sketch keeps the smallest
  /// exponent-bucketed prefix of its coverage row whose mass is at least
  /// (1 - epsilon) of the row total. 0 keeps every positive entry (the
  /// sketch *is* the row); larger values trade selection quality for
  /// smaller sketches and faster marginal gains. Values are clamped to
  /// [0, 1). See docs/performance.md for guidance.
  double epsilon = 0.1;
  /// Thread count for the sketch-construction pass (the only parallel
  /// stage). Any value yields bit-identical selections.
  ParallelOptions parallel;
};

/// Compact representation of one candidate's coverage contributions:
/// the retained row entries, element-id ascending, plus their total mass.
struct CoverageSketch {
  ElementId candidate = kInvalidElement;
  std::vector<ElementId> elems;  ///< covered elements, ascending id
  std::vector<double> values;    ///< parallel to elems, all > 0
  double mass = 0.0;             ///< sum of values

  size_t width() const { return elems.size(); }
};

/// Builds one sketch per candidate from the coverage matrix rows. The kept
/// entry set is chosen by binary-exponent bucketing (O(n) per row, no sort):
/// scanning buckets from the largest magnitude down, the threshold bucket is
/// the first whose cumulative mass reaches (1 - epsilon) of the row total;
/// every entry at or above it is retained. Smaller epsilon therefore keeps a
/// superset of a larger epsilon's sketch. The root's entry is always
/// excluded (it represents itself in every summary).
std::vector<CoverageSketch> BuildCoverageSketches(
    const SchemaGraph& graph, const CoverageMatrix& coverage,
    const std::vector<ElementId>& candidates,
    const ApproxCoverOptions& options = {});

/// BuildCoverageSketches that propagates instead of aborting — an expired
/// `options.parallel.deadline` surfaces as kDeadlineExceeded.
Result<std::vector<CoverageSketch>> TryBuildCoverageSketches(
    const SchemaGraph& graph, const CoverageMatrix& coverage,
    const std::vector<ElementId>& candidates,
    const ApproxCoverOptions& options = {});

/// Deterministic near-duplicate pruning: processes sketches in (mass
/// descending, candidate id ascending) order and drops a sketch when one of
/// the first `kApproxPruneProbe` kept sketches covers every one of its
/// entries at least as well (and has at least its mass) — such a candidate
/// can never beat its dominator's marginal gain. Returns indices into
/// `sketches` of the kept candidates, in the kept order.
std::vector<uint32_t> PruneDominatedSketches(
    const std::vector<CoverageSketch>& sketches);

/// Bounded number of kept sketches each candidate is compared against in
/// PruneDominatedSketches (the strongest ones first) — keeps pruning
/// O(candidates * probe * width).
inline constexpr size_t kApproxPruneProbe = 24;

/// CELF lazy-greedy selection of up to k candidates maximizing the sketched
/// coverage objective. `num_elements` is the schema size (sketch entries
/// index into it). Returns the selected candidate ids in selection order;
/// fewer than k when the sketches run out of positive marginal gain.
std::vector<ElementId> SelectLazyGreedy(
    size_t num_elements, const std::vector<CoverageSketch>& sketches,
    const std::vector<uint32_t>& kept, size_t k);

/// One-call approximate MaxCoverage over an explicit candidate set:
/// sketches, pruning, then lazy-greedy selection. Candidates must exclude
/// the root. Returns fewer than k elements when the candidates (or their
/// positive gains) run out; callers top up (see SelectMaxCoverage).
std::vector<ElementId> ApproxMaxCoverage(
    const SchemaGraph& graph, const CoverageMatrix& coverage,
    const std::vector<ElementId>& candidates, size_t k,
    const ApproxCoverOptions& options = {});

/// ApproxMaxCoverage that propagates instead of aborting — an expired
/// `options.parallel.deadline` surfaces as kDeadlineExceeded.
Result<std::vector<ElementId>> TryApproxMaxCoverage(
    const SchemaGraph& graph, const CoverageMatrix& coverage,
    const std::vector<ElementId>& candidates, size_t k,
    const ApproxCoverOptions& options = {});

}  // namespace ssum
