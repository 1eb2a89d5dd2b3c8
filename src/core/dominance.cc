#include "core/dominance.h"

#include <algorithm>

#include "common/logging.h"

namespace ssum {

namespace {

/// Two pairs' accumulators, one per lane, and the all-ones/all-zeros lane
/// mask that a comparison of them yields (GCC/Clang vector extensions).
using Lanes = double __attribute__((vector_size(16)));
using LaneMask = decltype(Lanes{} > Lanes{});

/// `x` in the lanes where `mask` is set, +0.0 elsewhere.
inline Lanes Masked(LaneMask mask, Lanes x) {
  return reinterpret_cast<Lanes>(mask & reinterpret_cast<LaneMask>(x));
}

/// Theorem 1's sums C1 and C2 for kWidth dominator candidates `e1s` against
/// one e2, in one pass over row e2 and the e1 rows. Lane j of every vector
/// is one pair's sum in element order. Where by2 > by1 fails the mask clears
/// both addends to +0.0, which leaves a sum unchanged (sums start at +0.0
/// and coverage entries are never -0.0), so each lane matches the branchy
/// per-pair loop of Dominates bit for bit; the loop body has no
/// data-dependent branch, and kWidth / 2 pairs of accumulators stay in
/// registers.
template <size_t kWidth>
void TheoremOneSums(const SchemaGraph& graph, const CoverageMatrix& coverage,
                    const ElementId* e1s, ElementId e2, double* c1,
                    double* c2) {
  static_assert(kWidth % 2 == 0);
  constexpr size_t kVectors = kWidth / 2;
  const size_t n = graph.size();
  const ElementId root = graph.root();
  const double* row2 = coverage.matrix().Row(e2);
  const double* rows1[kWidth];
  for (size_t j = 0; j < kWidth; ++j) rows1[j] = coverage.matrix().Row(e1s[j]);
  Lanes s1[kVectors] = {};
  Lanes s2[kVectors] = {};
  auto scan = [&](size_t begin, size_t end) {
    for (size_t e = begin; e < end; ++e) {
      const Lanes by2 = {row2[e], row2[e]};
      for (size_t v = 0; v < kVectors; ++v) {
        const Lanes by1 = {rows1[2 * v][e], rows1[2 * v + 1][e]};
        const LaneMask in_e = by2 > by1;
        s1[v] += Masked(in_e, by1);
        s2[v] += Masked(in_e, by2);
      }
    }
  };
  // The root is not in E; skipping it splits the pass instead of testing
  // every element against it.
  scan(0, std::min<size_t>(root, n));
  scan(std::min<size_t>(root + 1, n), n);
  for (size_t v = 0; v < kVectors; ++v) {
    for (size_t lane = 0; lane < 2; ++lane) {
      c1[2 * v + lane] = s1[v][lane];
      c2[2 * v + lane] = s2[v][lane];
    }
  }
}

/// Theorem 1's inequalities for e1 (dominator) over e2 != e1, given the
/// sums C1 and C2, e_c and C(e_c -> e1) — the first maximum of column e1,
/// root and e1 excluded.
bool TheoremOneHolds(const Annotations& annotations,
                     const CoverageMatrix& coverage, ElementId e1,
                     ElementId e2, double c1, double c2, ElementId ec,
                     double ec_cov) {
  const double card1 = static_cast<double>(annotations.card(e1));
  const double delta = c2 - c1;
  if (delta > card1 - coverage.At(e2, e1)) return false;
  if (ec != kInvalidElement && ec != e2) {
    if (delta > card1 - ec_cov) return false;
  }
  return true;
}

}  // namespace

bool Dominates(const SchemaGraph& graph, const Annotations& annotations,
               const CoverageMatrix& coverage, ElementId e1, ElementId e2) {
  if (e1 == e2) return false;
  // e_c: the element besides e1 with the highest coverage of e1.
  ElementId ec = kInvalidElement;
  double ec_cov = -1.0;
  for (ElementId e = 0; e < graph.size(); ++e) {
    if (e == e1 || e == graph.root()) continue;
    const double c = coverage.At(e, e1);
    if (c > ec_cov) {
      ec = e;
      ec_cov = c;
    }
  }
  // E, C1, C2 per Theorem 1, pair by pair: the reference that
  // TryComputeDominance's grouped pass must reproduce.
  const double* row1 = coverage.matrix().Row(e1);
  const double* row2 = coverage.matrix().Row(e2);
  double c1 = 0;
  double c2 = 0;
  for (ElementId e = 0; e < graph.size(); ++e) {
    if (e == graph.root()) continue;
    if (row2[e] > row1[e]) {
      c1 += row1[e];
      c2 += row2[e];
    }
  }
  return TheoremOneHolds(annotations, coverage, e1, e2, c1, c2, ec, ec_cov);
}

std::vector<ElementId> ExtendedAncestors(const SchemaGraph& graph,
                                         ElementId e) {
  // BFS over "parent-like" edges: structural parent, and referees of value
  // links where the current element is the referrer.
  std::vector<bool> seen(graph.size(), false);
  std::vector<ElementId> queue;
  std::vector<ElementId> out;
  auto push = [&](ElementId x) {
    if (x != kInvalidElement && !seen[x]) {
      seen[x] = true;
      queue.push_back(x);
      out.push_back(x);
    }
  };
  seen[e] = true;
  ElementId p = graph.parent(e);
  push(p);
  for (const Neighbor& nbr : graph.neighbors(e)) {
    if (!nbr.is_structural && nbr.forward) push(nbr.other);  // referee
  }
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    ElementId cur = queue[qi];
    push(graph.parent(cur));
    for (const Neighbor& nbr : graph.neighbors(cur)) {
      if (!nbr.is_structural && nbr.forward) push(nbr.other);
    }
  }
  return out;
}

Result<DominanceResult> TryComputeDominance(const SchemaGraph& graph,
                                            const Annotations& annotations,
                                            const CoverageMatrix& coverage,
                                            const ParallelOptions& parallel) {
  SSUM_RETURN_NOT_OK(parallel.deadline.Check("dominance"));
  const size_t n = graph.size();
  // e_c of every element in one row-major pass: visiting rows in increasing
  // order with a strict `>` keeps the first maximum of each column, which is
  // the rule Dominates applies to a single column.
  std::vector<ElementId> ec(n, kInvalidElement);
  std::vector<double> ec_cov(n, -1.0);
  for (ElementId e = 0; e < n; ++e) {
    if (e == graph.root()) continue;
    const double* row = coverage.matrix().Row(e);
    for (ElementId col = 0; col < n; ++col) {
      if (col != e && row[col] > ec_cov[col]) {
        ec[col] = e;
        ec_cov[col] = row[col];
      }
    }
  }
  // Each element's dominators land in its own slot; concatenating the slots
  // in element order reproduces the serial pair order at any thread count.
  std::vector<std::vector<ElementId>> dominators(n);
  SSUM_RETURN_NOT_OK(ParallelFor(
      0, n, /*grain=*/16,
      [&](size_t i) {
        const ElementId e = static_cast<ElementId>(i);
        if (e == graph.root()) return;
        std::vector<ElementId> ancestors = ExtendedAncestors(graph, e);
        std::erase(ancestors, graph.root());
        // Groups of up to 8 ancestors share one pass over row e. A group of
        // fewer runs at the narrowest width of 8, 4 or 2 that holds it; a
        // spare slot reads row e itself, where by2 > by2 never holds.
        double c1[8];
        double c2[8];
        for (size_t g = 0; g < ancestors.size(); g += 8) {
          const size_t count = std::min<size_t>(8, ancestors.size() - g);
          ElementId group[8];
          std::fill(std::copy_n(ancestors.data() + g, count, group), group + 8,
                    e);
          if (count > 4) {
            TheoremOneSums<8>(graph, coverage, group, e, c1, c2);
          } else if (count > 2) {
            TheoremOneSums<4>(graph, coverage, group, e, c1, c2);
          } else {
            TheoremOneSums<2>(graph, coverage, group, e, c1, c2);
          }
          for (size_t j = 0; j < count; ++j) {
            if (TheoremOneHolds(annotations, coverage, group[j], e, c1[j],
                                c2[j], ec[group[j]], ec_cov[group[j]])) {
              dominators[e].push_back(group[j]);
            }
          }
        }
      },
      parallel));
  DominanceResult result;
  result.dominated.assign(n, false);
  for (ElementId e = 0; e < n; ++e) {
    for (ElementId anc : dominators[e]) result.pairs.push_back({anc, e});
    result.dominated[e] = !dominators[e].empty();
  }
  for (ElementId e = 0; e < n; ++e) {
    if (e == graph.root() || result.dominated[e]) continue;
    result.candidates.push_back(e);
  }
  return result;
}

DominanceResult ComputeDominance(const SchemaGraph& graph,
                                 const Annotations& annotations,
                                 const CoverageMatrix& coverage) {
  auto result = TryComputeDominance(graph, annotations, coverage);
  SSUM_CHECK(result.ok(), result.status().ToString());
  return std::move(*result);
}

}  // namespace ssum
