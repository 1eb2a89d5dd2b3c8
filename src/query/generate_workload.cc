#include "query/generate_workload.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace ssum {

Workload GenerateWorkload(const SchemaGraph& schema,
                          const std::vector<double>& importance,
                          const WorkloadGenOptions& options) {
  SSUM_CHECK(importance.size() == schema.size(),
             "importance vector must match the schema");
  SSUM_CHECK(options.focus >= 0.0 && options.focus <= 1.0,
             "focus must lie in [0,1]");
  Rng rng(options.seed);

  // Sampling weights: importance^(2*focus), normalized over non-root
  // elements. focus=0 degenerates to uniform; focus=1 squares importance,
  // concentrating mass on the head of the distribution.
  const double exponent = 2.0 * options.focus;
  std::vector<double> weights(schema.size(), 0.0);
  for (ElementId e = 0; e < schema.size(); ++e) {
    if (e == schema.root()) continue;
    double base = std::max(importance[e], 0.0);
    weights[e] = exponent == 0.0 ? 1.0 : std::pow(base, exponent);
  }

  Workload workload;
  workload.name = "synthetic(focus=" + std::to_string(options.focus) + ")";
  for (size_t q = 0; q < options.num_queries; ++q) {
    QueryIntention intention;
    intention.name = std::string("s").append(std::to_string(q + 1));
    size_t target_size =
        1 + static_cast<size_t>(rng.NextPoisson(
                std::max(0.0, options.mean_size - 1.0)));
    // Anchor element.
    size_t anchor_idx = rng.NextWeighted(weights);
    if (anchor_idx >= schema.size()) anchor_idx = 1 % schema.size();
    ElementId anchor = static_cast<ElementId>(anchor_idx);
    intention.elements.push_back(anchor);
    std::vector<ElementId> anchor_subtree = schema.Subtree(anchor);
    // Additional elements: local to the anchor with probability `locality`,
    // fresh importance-weighted draws otherwise.
    size_t guard = 0;
    while (intention.elements.size() < target_size &&
           ++guard < 20 * target_size + 50) {
      ElementId next;
      if (rng.NextBool(options.locality) && anchor_subtree.size() > 1) {
        next = anchor_subtree[1 + rng.NextBounded(anchor_subtree.size() - 1)];
      } else {
        size_t idx = rng.NextWeighted(weights);
        if (idx >= schema.size()) continue;
        next = static_cast<ElementId>(idx);
      }
      if (next == schema.root()) continue;
      if (std::find(intention.elements.begin(), intention.elements.end(),
                    next) != intention.elements.end()) {
        continue;
      }
      intention.elements.push_back(next);
    }
    workload.queries.push_back(std::move(intention));
  }
  return workload;
}

}  // namespace ssum
