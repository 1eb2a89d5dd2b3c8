#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <optional>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "schema/schema_graph.h"

namespace ssum {

/// Per-adjacency multiplicative step factors: factors[e][i] applies when a
/// walk steps from `e` to `graph.neighbors(e)[i].other`.
using EdgeFactors = std::vector<std::vector<double>>;

/// Minimal aligned allocator for the walk-engine arrays. 64-byte alignment
/// keeps every CSR row and lane block on its own cache line and satisfies
/// the widest vector loads the autovectorizer may emit.
template <typename T, std::size_t Alignment>
struct AlignedAllocator {
  using value_type = T;
  // The alignment parameter is a non-type, so the default allocator_traits
  // rebind cannot apply; spell it out.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  T* allocate(std::size_t count) {
    return static_cast<T*>(
        ::operator new(count * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const {
    return true;
  }
};

template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, 64>>;

/// Lane width of the batched walk kernel: MaxProductWalksBatch advances this
/// many sources through each relaxation step simultaneously. 8 doubles fill
/// one 64-byte cache line (and one AVX-512 register / two AVX ones). The
/// last block of a batch is padded with inactive lanes.
inline constexpr size_t kWalkLaneWidth = 8;

/// Immutable CSR snapshot of (graph, factors), built once per matrix and
/// shared by every walk from it. Replaces the pointer-chasing
/// vector<vector<…>> adjacency walk with contiguous row scans:
///
///   row_offsets[u] .. row_offsets[u+1]  indexes neighbor_ids/edge_factors,
///   flattened in the graph's adjacency order.
///
/// Zero-factor adjacency records are pruned from the snapshot: a zero
/// product can never win a max against values that are always >= +0, so
/// walks over the pruned plan produce bit-identical results while skipping
/// dead edges (affinity factor sets are zero-heavy). Build() rejects
/// self-edges (SchemaGraph cannot produce them; the batched kernel relies
/// on source != target to keep its input and output lanes non-aliasing).
struct WalkPlan {
  size_t num_elements = 0;
  AlignedVector<uint32_t> row_offsets;   ///< num_elements + 1 entries
  AlignedVector<uint32_t> neighbor_ids;  ///< one per adjacency record
  AlignedVector<double> edge_factors;    ///< parallel to neighbor_ids

  size_t size() const { return num_elements; }
  size_t num_edges() const { return neighbor_ids.size(); }

  static WalkPlan Build(const SchemaGraph& graph, const EdgeFactors& factors);
};

/// Maximum-product walk search with a step bound.
///
/// Both Formula 2 (affinity) and Formula 3 (coverage) take a maximum over
/// all paths of a product of per-edge factors; affinity additionally divides
/// by the path's step count. Neither objective is prefix-optimal, so instead
/// of a shortest-path algorithm we run a dynamic program over bounded-length
/// walks:
///
///   best_k[v] = max over k-step walks source->v of the factor product
///
/// and reduce over k. All factors used by this library are in [0,1]
/// (edge affinities are capped at 1 and neighbor weights are normalized), so
/// optimal walks never repeat profitable cycles and the step bound only
/// needs to cover the graph diameter (see DESIGN.md interpretation notes).
struct WalkSearchOptions {
  /// Upper bound on walk steps. 16 exceeds the diameter of every evaluated
  /// schema; raise for unusually deep schemas.
  uint32_t max_steps = 16;
  /// Divide the k-step product by k before reducing (Formula 2 semantics).
  bool divide_by_steps = false;
};

/// Returns, for every target element, max over k in [1, max_steps] of
/// (product of the best k-step walk) / (divide_by_steps ? k : 1).
/// The source's own entry reports the best *cycle* value (callers overwrite
/// it with the formula's special case).
std::vector<double> MaxProductWalks(const SchemaGraph& graph,
                                    const EdgeFactors& factors,
                                    ElementId source,
                                    const WalkSearchOptions& options);

/// Batched multi-source walk search over a WalkPlan. Bit-identical to running
/// the scalar MaxProductWalks per source (docs/performance.md "Walk engine"
/// explains why), but advances kWalkLaneWidth sources per relaxation step:
/// the inner loop is a dense gather of the block's `cur` lanes, a broadcast
/// multiply by the edge factor, and a vertical max into the `next` lanes —
/// with per-lane active flags replacing the scalar kernel's global `any`
/// scan and a touched-vertex list replacing its full-frontier clear.
///
/// `out_rows[i]` receives the result row for `sources[i]` and must view
/// plan.size() doubles (e.g. SquareMatrix::RowSpan). Sources may repeat.
/// Batches larger than kWalkLaneWidth are processed block by block; matrix
/// builds distribute lane blocks across a ParallelFor through WalkRows.
void MaxProductWalksBatch(const WalkPlan& plan,
                          std::span<const ElementId> sources,
                          const WalkSearchOptions& options,
                          std::span<const std::span<double>> out_rows);

/// Dirty-frontier closure for incremental matrix patching: the set of
/// elements (as an n-byte 0/1 mask) within `max_steps` hops of any element
/// in `dirty`, over the schema's full adjacency. A walk row outside the
/// closure cannot traverse an edge owned by a dirty element within the step
/// bound — schema adjacency is symmetric, so distance-to-dirty bounds
/// dirty-to-row reachability — which makes copying that row from the base
/// matrix bit-identical to recomputing it (see docs/incremental.md for the
/// argument covering both matrices).
std::vector<uint8_t> DirtyFrontierClosure(const SchemaGraph& graph,
                                          std::span<const ElementId> dirty,
                                          uint32_t max_steps);

/// Knobs for the incremental matrix patch (AffinityMatrix::TryPatch /
/// CoverageMatrix::TryPatch).
struct MatrixPatchOptions {
  /// When the dirty-frontier closure covers more than this fraction of the
  /// rows, patching recomputes almost everything anyway; fall back to a
  /// full TryCompute (which skips the closure bookkeeping and the base-copy
  /// write traffic).
  double max_dirty_fraction = 0.5;
};

/// What a TryPatch actually did — for logging, `cache lineage`, the
/// patch-engagement checks in tests/test_delta.cc, and the benchmark's
/// `version_chain` per-layer metrics (perfbench/README.md).
struct MatrixPatchStats {
  size_t dirty_rows = 0;  ///< rows inside the closure (recomputed if patched)
  size_t total_rows = 0;
  bool patched = false;   ///< false = fell back to a full recompute
};

/// The patch preamble shared by AffinityMatrix::TryPatch and
/// CoverageMatrix::TryPatch: the rows inside the dirty-frontier closure of
/// `dirty`, in element order, or nullopt when they exceed
/// patch.max_dirty_fraction of the rows (the caller then runs a full
/// TryCompute). Fills `stats` (may be null) with the closure size and
/// patched = false; the caller sets `patched` once the walk succeeds.
std::optional<std::vector<ElementId>> PatchRows(
    const SchemaGraph& graph, std::span<const ElementId> dirty,
    uint32_t max_steps, const MatrixPatchOptions& patch,
    MatrixPatchStats* stats);

/// Dense square matrix helper used by the affinity/coverage caches. Rows are
/// the unit of parallel writing (one owner per row, see common/parallel.h);
/// the debug bounds assertions catch out-of-range accesses that would
/// otherwise silently alias a neighboring row.
class SquareMatrix {
 public:
  SquareMatrix() = default;
  SquareMatrix(size_t n, double fill) : n_(n), data_(n * n, fill) {}

  double At(size_t row, size_t col) const {
    assert(row < n_ && col < n_);
    return data_[row * n_ + col];
  }
  void Set(size_t row, size_t col, double v) {
    assert(row < n_ && col < n_);
    data_[row * n_ + col] = v;
  }
  double* Row(size_t row) {
    assert(row < n_);
    return data_.data() + row * n_;
  }
  const double* Row(size_t row) const {
    assert(row < n_);
    return data_.data() + row * n_;
  }
  /// Bounds-checked row view; the preferred handle for parallel row writers.
  std::span<double> RowSpan(size_t row) {
    assert(row < n_);
    return {data_.data() + row * n_, n_};
  }
  std::span<const double> RowSpan(size_t row) const {
    assert(row < n_);
    return {data_.data() + row * n_, n_};
  }
  void Fill(double v) { std::fill(data_.begin(), data_.end(), v); }
  size_t size() const { return n_; }
  /// Backing storage in row-major order (n*n entries) — byte-comparable for
  /// the determinism checks in tests and benches.
  const std::vector<double>& data() const { return data_; }

 private:
  size_t n_ = 0;
  std::vector<double> data_;
};

/// The one lane-block walk loop behind every matrix build and patch
/// (AffinityMatrix / CoverageMatrix TryCompute and TryPatch): walks each
/// source in `sources` into row `source` of `out`, then calls
/// finish(source, row) once per walked row for the formula's scaling and
/// diagonal. The ParallelFor unit is one lane block of kWalkLaneWidth
/// sources (grain 1), so every row has exactly one writer and any thread
/// count yields bit-identical rows; since MaxProductWalksBatch results do
/// not depend on which sources share a block, a patched row equals the
/// cold one. Rows not in `sources` are left untouched. An expired
/// `parallel.deadline` stops between blocks with kDeadlineExceeded.
Status WalkRows(
    const WalkPlan& plan, std::span<const ElementId> sources,
    const WalkSearchOptions& walk, SquareMatrix& out,
    const ParallelOptions& parallel,
    const std::function<void(ElementId, std::span<double>)>& finish);

}  // namespace ssum
