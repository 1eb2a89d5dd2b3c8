#pragma once

#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "core/coverage.h"
#include "schema/schema_graph.h"
#include "stats/annotate.h"

namespace ssum {

/// A dominance fact: for any summary containing only `dominated`, replacing
/// it with `dominator` yields at least as much summary coverage (Theorem 1).
struct DominancePair {
  ElementId dominator;
  ElementId dominated;
};

struct DominanceResult {
  /// DS of Figure 6.
  std::vector<DominancePair> pairs;
  /// dominated[e] = true when some other element dominates e.
  std::vector<bool> dominated;
  /// CS of Figure 6: elements (excluding the root) not dominated by anyone.
  std::vector<ElementId> candidates;
};

/// Theorem 1 dominance test: does e1 dominate e2?
///
/// E  = elements (incl. e2) with higher coverage by e2 than by e1
/// C1 = sum over E of C(e1->e), C2 = sum over E of C(e2->e)
/// e_c = element != e1 (and != root) with the highest coverage of e1; the
///       first one in id order wins ties
/// e1 dominates e2 iff  C2 - C1 <= Card(e1) - C(e2->e1)
///             and (if e_c != e2)  C2 - C1 <= Card(e1) - C(e_c->e1)
///
/// A single test is O(n): one pass over rows e1 and e2 plus one strided
/// walk of column e1 for e_c.
bool Dominates(const SchemaGraph& graph, const Annotations& annotations,
               const CoverageMatrix& coverage, ElementId e1, ElementId e2);

/// Figure 6 lines 2-12: evaluates Theorem 1 for every extended
/// ancestor/descendant pair (structural parents plus value-link referees
/// treated as parents, per the paper's footnote), the ancestor playing the
/// dominator role. Missing some dominance facts is harmless (the heuristic
/// only prunes); fabricating them would not be.
///
/// Every element's e_c is computed once, in one row-major pass over the
/// coverage matrix. Each element's extended ancestors are then tested in
/// groups of up to 8 in one pass over its own coverage row, with per-pair
/// sums in element order, so the sums equal Dominates' bit for bit.
/// Elements are scanned in parallel per `parallel`, each into its own pair
/// slot, and the slots are concatenated in element order: `pairs` is
/// identical (order included) at every thread count, and equal to the
/// naive ExtendedAncestors x Dominates loop. An expired `parallel.deadline`
/// surfaces as kDeadlineExceeded, checked on entry and per element block.
Result<DominanceResult> TryComputeDominance(const SchemaGraph& graph,
                                            const Annotations& annotations,
                                            const CoverageMatrix& coverage,
                                            const ParallelOptions& parallel = {});

/// TryComputeDominance for callers without a deadline; aborts on failure
/// (the scan itself cannot fail).
DominanceResult ComputeDominance(const SchemaGraph& graph,
                                 const Annotations& annotations,
                                 const CoverageMatrix& coverage);

/// Extended-ancestor reachability used by the pruning heuristic: ancestors
/// of `e` through structural-parent and referrer->referee edges. Does not
/// include `e` itself.
std::vector<ElementId> ExtendedAncestors(const SchemaGraph& graph,
                                         ElementId e);

}  // namespace ssum
