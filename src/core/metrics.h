#pragma once

#include <vector>

#include "core/affinity.h"
#include "core/coverage.h"
#include "core/summary.h"
#include "schema/schema_graph.h"
#include "stats/annotate.h"

namespace ssum {

/// Summary importance R_SS (Definition 3): the fraction of total element
/// importance captured by the summary's elements (the root, always present
/// in a summary, is included).
double SummaryImportanceRatio(const SchemaGraph& graph,
                              const std::vector<double>& importance,
                              const SchemaSummary& summary);

/// Absolute summary coverage: sum over elements of C(representative -> e),
/// using the summary's group assignment (Definition 4 numerator). The root
/// covers itself with its own cardinality.
double SummaryCoverageValue(const SchemaGraph& graph,
                            const Annotations& annotations,
                            const CoverageMatrix& coverage,
                            const SchemaSummary& summary);

/// Summary coverage C_SS (Definition 4): the ratio of the absolute coverage
/// to the total cardinality of all schema elements.
double SummaryCoverageRatio(const SchemaGraph& graph,
                            const Annotations& annotations,
                            const CoverageMatrix& coverage,
                            const SchemaSummary& summary);

/// An element's representative among the set members offered to it so far,
/// under CoverageOfSet's assignment rule. `member` stays kInvalidElement
/// until some member has positive affinity from the element.
struct MemberChoice {
  ElementId member = kInvalidElement;
  double affinity = 0.0;  ///< A(element -> member)
  double coverage = 0.0;  ///< C(member -> element)
};

/// CoverageOfSet's tie rule, the one definition of it: a set member toward
/// which the element has affinity `a` and which covers it with `c` takes
/// over from `choice` when `a` is strictly higher, or equal and positive
/// with `c` strictly higher. Earlier members win the remaining ties, so
/// members must be offered in set order.
inline bool TakesOver(const MemberChoice& choice, double a, double c) {
  return a > choice.affinity ||
         (a == choice.affinity && a > 0.0 && c > choice.coverage);
}

/// Offers set member `s` to element `e`.
inline void OfferMember(const AffinityMatrix& affinity,
                        const CoverageMatrix& coverage, ElementId e,
                        ElementId s, MemberChoice& choice) {
  const double a = affinity.At(e, s);
  const double c = coverage.At(s, e);
  if (TakesOver(choice, a, c)) choice = {s, a, c};
}

/// Coverage of an arbitrary candidate element set (used by MaxCoverage's
/// exact and greedy searches): every element is assigned to the set member
/// toward which it has the highest affinity (OfferMember, members in set
/// order), then member->element coverages are summed in element order. A
/// member covers itself with C(e->e). The root is excluded (it always
/// represents itself).
double CoverageOfSet(const SchemaGraph& graph,
                     const AffinityMatrix& affinity,
                     const CoverageMatrix& coverage,
                     const std::vector<ElementId>& set);

}  // namespace ssum
