#include "core/path_engine.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>

#include "common/logging.h"

namespace ssum {

std::vector<double> MaxProductWalks(const SchemaGraph& graph,
                                    const EdgeFactors& factors,
                                    ElementId source,
                                    const WalkSearchOptions& options) {
  const size_t n = graph.size();
  SSUM_CHECK(source < n, "MaxProductWalks: source out of range");
  SSUM_CHECK(factors.size() == n, "MaxProductWalks: factor shape mismatch");
  std::vector<double> cur(n, 0.0);
  std::vector<double> next(n, 0.0);
  std::vector<double> best(n, 0.0);
  cur[source] = 1.0;
  // Track the set of reachable-so-far elements to skip dead rows early on.
  for (uint32_t k = 1; k <= options.max_steps; ++k) {
    std::fill(next.begin(), next.end(), 0.0);
    bool any = false;
    for (ElementId u = 0; u < n; ++u) {
      const double base = cur[u];
      if (base <= 0.0) continue;
      const auto& nbrs = graph.neighbors(u);
      const auto& f = factors[u];
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const double v = base * f[i];
        if (v > next[nbrs[i].other]) {
          next[nbrs[i].other] = v;
          any = true;
        }
      }
    }
    const double scale = options.divide_by_steps ? 1.0 / k : 1.0;
    for (size_t t = 0; t < n; ++t) {
      const double scored = next[t] * scale;
      if (scored > best[t]) best[t] = scored;
    }
    if (!any) break;  // nothing reachable beyond k-1 steps
    cur.swap(next);
  }
  return best;
}

WalkPlan WalkPlan::Build(const SchemaGraph& graph, const EdgeFactors& factors) {
  const size_t n = graph.size();
  SSUM_CHECK(factors.size() == n, "WalkPlan: factor shape mismatch");
  WalkPlan plan;
  plan.num_elements = n;
  plan.row_offsets.resize(n + 1);
  // Zero-factor entries are dropped from the snapshot: a zero product can
  // never win a max against best/next values that are always >= +0, so the
  // pruned plan walks to bit-identical results while skipping the dead
  // edges entirely (affinity factor sets are zero-heavy).
  size_t nnz = 0;
  for (ElementId u = 0; u < n; ++u) {
    const auto& f = factors[u];
    SSUM_CHECK(f.size() == graph.neighbors(u).size(),
               "WalkPlan: factor row shape mismatch");
    plan.row_offsets[u] = static_cast<uint32_t>(nnz);
    for (double v : f) nnz += v != 0.0;
  }
  SSUM_CHECK(nnz <= std::numeric_limits<uint32_t>::max(),
             "WalkPlan: adjacency too large for 32-bit offsets");
  plan.row_offsets[n] = static_cast<uint32_t>(nnz);
  plan.neighbor_ids.resize(nnz);
  plan.edge_factors.resize(nnz);
  for (ElementId u = 0; u < n; ++u) {
    const auto& nbrs = graph.neighbors(u);
    const auto& f = factors[u];
    uint32_t idx = plan.row_offsets[u];
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (f[i] == 0.0) continue;
      SSUM_CHECK(nbrs[i].other != u, "WalkPlan: self-edge");
      plan.neighbor_ids[idx] = nbrs[i].other;
      plan.edge_factors[idx] = f[i];
      ++idx;
    }
  }
  // One BFS over the pruned adjacency, restarted at the lowest unvisited id
  // for every further component. WalkRows walks its sources in this order.
  plan.visit_order.reserve(n);
  std::vector<uint8_t> seen(n, 0);
  for (ElementId start = 0; start < n; ++start) {
    if (seen[start]) continue;
    seen[start] = 1;
    size_t head = plan.visit_order.size();
    plan.visit_order.push_back(start);
    for (; head < plan.visit_order.size(); ++head) {
      const ElementId u = plan.visit_order[head];
      for (uint32_t idx = plan.row_offsets[u]; idx < plan.row_offsets[u + 1];
           ++idx) {
        const ElementId v = plan.neighbor_ids[idx];
        if (!seen[v]) {
          seen[v] = 1;
          plan.visit_order.push_back(v);
        }
      }
    }
  }
  return plan;
}

namespace {

/// Lane-interleaved scratch reused across every lane block of one
/// MaxProductWalksBatch call, or of one WalkRows worker.
/// `cur`/`next` are never bulk-cleared: `next` lanes are fully written on
/// first touch each step (stamp-guarded), and `cur` is only ever read at
/// frontier vertices, which are always freshly written. Only `best` and
/// `reach` need a per-block zero fill. `stamp` uses monotonically
/// increasing epochs so it survives block reuse without a reset pass.
template <size_t kB>
struct BatchScratch {
  AlignedVector<double> cur;
  AlignedVector<double> next;
  AlignedVector<double> best;
  AlignedVector<double> reach;  ///< best raw product over fewer steps
  std::vector<uint64_t> stamp;
  std::vector<ElementId> frontier;
  std::vector<ElementId> touched;
  uint64_t epoch = 0;

  explicit BatchScratch(size_t n)
      : cur(n * kB), next(n * kB), best(n * kB), reach(n * kB), stamp(n, 0) {
    frontier.reserve(n);
    touched.reserve(n);
  }
};

inline double* AssumeLaneAligned(double* p) {
  // Every vertex's lane block is kB doubles = one whole 64-byte line into a
  // 64-byte-aligned array.
  return static_cast<double*>(__builtin_assume_aligned(p, 64));
}

/// One lane block: up to kB sources relaxed in lockstep. State arrays are
/// lane-interleaved (entry v*kB + lane) so each relaxation touches kB
/// contiguous doubles — whole cache lines, and a trivially vectorizable
/// multiply-max loop.
template <size_t kB>
void RunLaneBlock(const WalkPlan& plan, const ElementId* sources, size_t count,
                  const WalkSearchOptions& options, BatchScratch<kB>& scratch,
                  const std::span<double>* out_rows) {
  const size_t n = plan.num_elements;
  // Epoch layout per block: seed_epoch, then one epoch per step.
  const uint64_t seed_epoch = scratch.epoch + 1;
  scratch.epoch = seed_epoch + options.max_steps + 1;
  uint64_t* const stamp = scratch.stamp.data();
  double* const cur0 = scratch.cur.data();
  double* const next0 = scratch.next.data();
  double* const best0 = scratch.best.data();
  double* const reach0 = scratch.reach.data();
  std::fill(scratch.best.begin(), scratch.best.end(), 0.0);
  std::fill(scratch.reach.begin(), scratch.reach.end(), 0.0);
  scratch.frontier.clear();

  for (size_t lane = 0; lane < count; ++lane) {
    const ElementId s = sources[lane];
    if (stamp[s] != seed_epoch) {
      stamp[s] = seed_epoch;
      scratch.frontier.push_back(s);
      double* const cv = AssumeLaneAligned(cur0 + s * kB);
      for (size_t l = 0; l < kB; ++l) cv[l] = 0.0;
    }
    cur0[s * kB + lane] = 1.0;
    reach0[s * kB + lane] = 1.0;  // the zero-step walk
  }

  std::vector<ElementId>& frontier = scratch.frontier;
  std::vector<ElementId>& touched = scratch.touched;
  double* cur = cur0;
  double* next = next0;
  for (uint32_t k = 1; k <= options.max_steps && !frontier.empty(); ++k) {
    const uint64_t step_epoch = seed_epoch + k;
    touched.clear();
    for (const ElementId u : frontier) {
      const double* __restrict base = AssumeLaneAligned(cur + u * kB);
      const uint32_t row_end = plan.row_offsets[u + 1];
      for (uint32_t idx = plan.row_offsets[u]; idx < row_end; ++idx) {
        const ElementId v = plan.neighbor_ids[idx];
        const double f = plan.edge_factors[idx];
        double* __restrict nv = AssumeLaneAligned(next + v * kB);
        if (stamp[v] != step_epoch) {
          stamp[v] = step_epoch;
          touched.push_back(v);
          for (size_t l = 0; l < kB; ++l) nv[l] = base[l] * f;
        } else {
          for (size_t l = 0; l < kB; ++l) nv[l] = std::max(nv[l], base[l] * f);
        }
      }
    }
    // Fold every k-step value into best, then rebuild the frontier with
    // only the vertices where some lane beat its `reach`, the best product
    // of a shorter walk to the same vertex (docs/performance.md "Walk
    // engine" has the exactness argument). A walk extended from a dominated
    // value is matched by the same suffix on the shorter walk, which scores
    // at least as well, so dropping it never changes a result bit. This
    // subsumes the scalar kernel's `base <= 0` row skip and its `any` early
    // exit (reach starts at +0, and an empty frontier ends the loop).
    // std::max keeps the incumbent on ties, exactly like the scalar
    // kernel's strict `>` update, so the fold is branch-free.
    const double scale = options.divide_by_steps ? 1.0 / k : 1.0;
    frontier.clear();
    for (const ElementId v : touched) {
      const double* __restrict nv = AssumeLaneAligned(next + v * kB);
      double* __restrict bv = AssumeLaneAligned(best0 + v * kB);
      double* __restrict rv = AssumeLaneAligned(reach0 + v * kB);
      bool grew = false;
      for (size_t l = 0; l < kB; ++l) {
        bv[l] = std::max(bv[l], nv[l] * scale);
        grew |= nv[l] > rv[l];
        rv[l] = std::max(rv[l], nv[l]);
      }
      if (grew) frontier.push_back(v);
    }
    std::swap(cur, next);
  }

  for (size_t lane = 0; lane < count; ++lane) {
    double* out = out_rows[lane].data();
    for (size_t t = 0; t < n; ++t) out[t] = best0[t * kB + lane];
  }
}

}  // namespace

void MaxProductWalksBatch(const WalkPlan& plan,
                          std::span<const ElementId> sources,
                          const WalkSearchOptions& options,
                          std::span<const std::span<double>> out_rows) {
  constexpr size_t kLanes = kWalkLaneWidth;
  const size_t n = plan.num_elements;
  SSUM_CHECK(sources.size() == out_rows.size(),
             "MaxProductWalksBatch: sources/out_rows size mismatch");
  for (size_t i = 0; i < sources.size(); ++i) {
    SSUM_CHECK(sources[i] < n, "MaxProductWalksBatch: source out of range");
    SSUM_CHECK(out_rows[i].size() == n,
               "MaxProductWalksBatch: output row shape mismatch");
  }
  BatchScratch<kLanes> scratch(n);
  for (size_t b = 0; b < sources.size(); b += kLanes) {
    const size_t count = std::min(kLanes, sources.size() - b);
    RunLaneBlock<kLanes>(plan, sources.data() + b, count, options, scratch,
                         out_rows.data() + b);
  }
}

Status WalkRows(
    const WalkPlan& plan, std::span<const ElementId> sources,
    const WalkSearchOptions& walk, SquareMatrix& out,
    const ParallelOptions& parallel,
    const std::function<void(ElementId, std::span<double>)>& finish) {
  // Lane blocks of nearby sources share most of their pruned wavefronts.
  // A row depends only on its own source, so the order changes no result.
  std::vector<uint32_t> copies(plan.size(), 0);
  for (const ElementId s : sources) {
    SSUM_CHECK(s < plan.size(), "WalkRows: source out of range");
    ++copies[s];
  }
  std::vector<ElementId> ordered;
  ordered.reserve(sources.size());
  for (const ElementId s : plan.visit_order) {
    ordered.insert(ordered.end(), copies[s], s);
  }
  SSUM_CHECK(out.size() == plan.size(), "WalkRows: matrix shape mismatch");
  // Idle scratch arenas: a block takes one, or makes one while all are in
  // use, and hands it back, so a build allocates one arena per concurrent
  // worker instead of one per block.
  using Scratch = BatchScratch<kWalkLaneWidth>;
  std::mutex idle_mu;
  std::vector<std::unique_ptr<Scratch>> idle;
  const size_t blocks = (ordered.size() + kWalkLaneWidth - 1) / kWalkLaneWidth;
  return ParallelFor(
      0, blocks, /*grain=*/1,
      [&](size_t block) {
        std::unique_ptr<Scratch> scratch;
        {
          std::lock_guard<std::mutex> lock(idle_mu);
          if (!idle.empty()) {
            scratch = std::move(idle.back());
            idle.pop_back();
          }
        }
        if (scratch == nullptr) {
          scratch = std::make_unique<Scratch>(plan.size());
        }
        const size_t begin = block * kWalkLaneWidth;
        const std::span<const ElementId> lane = std::span(ordered).subspan(
            begin, std::min(kWalkLaneWidth, ordered.size() - begin));
        std::span<double> rows[kWalkLaneWidth];
        for (size_t i = 0; i < lane.size(); ++i) rows[i] = out.RowSpan(lane[i]);
        RunLaneBlock(plan, lane.data(), lane.size(), walk, *scratch, rows);
        for (size_t i = 0; i < lane.size(); ++i) finish(lane[i], rows[i]);
        std::lock_guard<std::mutex> lock(idle_mu);
        idle.push_back(std::move(scratch));
      },
      parallel);
}

std::vector<uint8_t> DirtyFrontierClosure(const SchemaGraph& graph,
                                          std::span<const ElementId> dirty,
                                          uint32_t max_steps) {
  const size_t n = graph.size();
  std::vector<uint8_t> mask(n, 0);
  std::vector<ElementId> frontier;
  for (ElementId e : dirty) {
    SSUM_CHECK(e < n, "DirtyFrontierClosure: dirty element out of range");
    if (!mask[e]) {
      mask[e] = 1;
      frontier.push_back(e);
    }
  }
  std::vector<ElementId> next_frontier;
  for (uint32_t hop = 0; hop < max_steps && !frontier.empty(); ++hop) {
    next_frontier.clear();
    for (ElementId u : frontier) {
      for (const Neighbor& nbr : graph.neighbors(u)) {
        if (!mask[nbr.other]) {
          mask[nbr.other] = 1;
          next_frontier.push_back(nbr.other);
        }
      }
    }
    frontier.swap(next_frontier);
  }
  return mask;
}

std::optional<std::vector<ElementId>> PatchRows(
    const SchemaGraph& graph, std::span<const ElementId> dirty,
    uint32_t max_steps, const MatrixPatchOptions& patch,
    MatrixPatchStats* stats) {
  const size_t n = graph.size();
  const std::vector<uint8_t> mask =
      DirtyFrontierClosure(graph, dirty, max_steps);
  std::vector<ElementId> rows;
  for (ElementId e = 0; e < n; ++e) {
    if (mask[e]) rows.push_back(e);
  }
  if (stats != nullptr) *stats = {rows.size(), n, /*patched=*/false};
  if (static_cast<double>(rows.size()) >
      patch.max_dirty_fraction * static_cast<double>(n)) {
    return std::nullopt;
  }
  return rows;
}

}  // namespace ssum
