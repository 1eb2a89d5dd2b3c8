#include "core/dominance.h"

#include "common/logging.h"

namespace ssum {

namespace {

/// Theorem 1's inequalities for e1 (dominator) over e2 != e1, given e_c and
/// C(e_c -> e1) — the first maximum of column e1, root and e1 excluded.
/// Reads rows e1 and e2 of the coverage matrix once.
bool TheoremOneHolds(const SchemaGraph& graph, const Annotations& annotations,
                     const CoverageMatrix& coverage, ElementId e1,
                     ElementId e2, ElementId ec, double ec_cov) {
  const size_t n = graph.size();
  const double* row1 = coverage.matrix().Row(e1);
  const double* row2 = coverage.matrix().Row(e2);
  // E, C1, C2 per Theorem 1.
  double c1 = 0;
  double c2 = 0;
  for (ElementId e = 0; e < n; ++e) {
    if (e == graph.root()) continue;
    const double by2 = row2[e];
    const double by1 = row1[e];
    if (by2 > by1) {
      c1 += by1;
      c2 += by2;
    }
  }
  const double card1 = static_cast<double>(annotations.card(e1));
  const double delta = c2 - c1;
  if (delta > card1 - row2[e1]) return false;
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
  return TheoremOneHolds(graph, annotations, coverage, e1, e2, ec, ec_cov);
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
        for (ElementId anc : ExtendedAncestors(graph, e)) {
          if (anc == graph.root()) continue;
          if (TheoremOneHolds(graph, annotations, coverage, anc, e, ec[anc],
                              ec_cov[anc])) {
            dominators[e].push_back(anc);
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
