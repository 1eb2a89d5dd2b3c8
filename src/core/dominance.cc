#include "core/dominance.h"

#include <algorithm>

#include "common/logging.h"

namespace ssum {

namespace {

/// Theorem 1's sums C1 and C2 for up to kGroup dominator candidates `e1s`
/// against one e2, in one pass over row e2 and the e1 rows. Each pair keeps
/// its own accumulators in element order; adding +0.0 where by2 <= by1
/// leaves a sum unchanged (sums start at +0.0 and coverage entries are never
/// -0.0), so the select matches the branchy per-pair loop bit for bit.
constexpr size_t kGroup = 8;

void TheoremOneSums(const SchemaGraph& graph, const CoverageMatrix& coverage,
                    const ElementId* e1s, size_t count, ElementId e2,
                    double* c1, double* c2) {
  const size_t n = graph.size();
  const double* row2 = coverage.matrix().Row(e2);
  // Unused slots read row e2 itself: by2 > by2 never holds, so they add
  // nothing, and the fixed-width inner loop keeps every sum in a register.
  const double* rows1[kGroup];
  for (size_t j = 0; j < kGroup; ++j) {
    rows1[j] = j < count ? coverage.matrix().Row(e1s[j]) : row2;
  }
  double s1[kGroup] = {};
  double s2[kGroup] = {};
  for (ElementId e = 0; e < n; ++e) {
    if (e == graph.root()) continue;
    const double by2 = row2[e];
    double by1[kGroup];
    for (size_t j = 0; j < kGroup; ++j) by1[j] = rows1[j][e];
    for (size_t j = 0; j < kGroup; ++j) {
      const bool in_e = by2 > by1[j];
      s1[j] += in_e ? by1[j] : 0.0;
      s2[j] += in_e ? by2 : 0.0;
    }
  }
  std::copy_n(s1, count, c1);
  std::copy_n(s2, count, c2);
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
        // Groups of up to kGroup ancestors share one pass over row e.
        double c1[kGroup];
        double c2[kGroup];
        for (size_t g = 0; g < ancestors.size(); g += kGroup) {
          const size_t count = std::min(kGroup, ancestors.size() - g);
          TheoremOneSums(graph, coverage, ancestors.data() + g, count, e, c1,
                         c2);
          for (size_t j = 0; j < count; ++j) {
            const ElementId anc = ancestors[g + j];
            if (TheoremOneHolds(annotations, coverage, anc, e, c1[j], c2[j],
                                ec[anc], ec_cov[anc])) {
              dominators[e].push_back(anc);
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
