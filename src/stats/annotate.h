#pragma once

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "instance/event_stream.h"
#include "instance/sharded_stream.h"
#include "schema/schema_graph.h"

namespace ssum {

/// Database-derived statistics of a schema graph (paper Figure 3):
/// element cardinalities and per-link instance counts, from which relative
/// cardinalities RC(e1 -> e2) are computed.
///
/// The paper increments a counter at both endpoints of a link for every link
/// instance; both counters are always equal, so a single per-link count is
/// stored and RC divides it by the cardinality of the queried endpoint:
///
///   RC(e1 -> e2) = link_count / card(e1)     (average #e2 per e1 node)
class Annotations {
 public:
  Annotations() = default;

  /// Zero-initialized annotations shaped for `graph`.
  explicit Annotations(const SchemaGraph& graph);

  /// "Schema-driven" annotations (paper Section 5.4): every element has
  /// cardinality 1 and every RC is exactly 1, erasing all data information.
  static Annotations Uniform(const SchemaGraph& graph);

  uint64_t card(ElementId e) const { return card_[e]; }
  uint64_t structural_count(LinkId l) const { return slink_count_[l]; }
  uint64_t value_count(LinkId l) const { return vlink_count_[l]; }

  void set_card(ElementId e, uint64_t v) { card_[e] = v; }
  void set_structural_count(LinkId l, uint64_t v) { slink_count_[l] = v; }
  void set_value_count(LinkId l, uint64_t v) { vlink_count_[l] = v; }

  void increment_card(ElementId e) { ++card_[e]; }
  void increment_structural(LinkId l) { ++slink_count_[l]; }
  void increment_value(LinkId l) { ++vlink_count_[l]; }

  /// Total cardinality over all elements — the paper's importance-sum
  /// invariant and the denominator of Definitions 3 and 4.
  double TotalCard() const;

  /// Exact integer total cardinality = the number of data nodes in the
  /// annotated instance (every node increments exactly one element's
  /// cardinality during annotateSchema).
  uint64_t TotalNodes() const;

  /// Element-wise sum of `other` into this. Counting is additive over any
  /// partition of the instance stream, so per-shard annotation passes merge
  /// into exactly the counters one full pass produces — the enabler for
  /// sharding AnnotateSchema over the instance stream and for merging
  /// per-shard snapshot containers. Fails with FailedPrecondition when the
  /// shapes differ (annotations of different schemas).
  Status Merge(const Annotations& other);

  /// Element-wise subtraction of `other` from this — the inverse of Merge,
  /// used by delta-annotation to retire the counts of units that changed
  /// before merging their re-walked replacements. Fails with
  /// FailedPrecondition on shape mismatch or when any counter would
  /// underflow (the subtrahend was not produced from a subset of this
  /// instance), leaving this unmodified in both cases.
  Status Subtract(const Annotations& other);

  /// RC along an adjacency record owned by `owner` (the average number of
  /// `nbr.other` data nodes connected to each `owner` node). Returns 0 when
  /// owner has no instances.
  double RelativeCardinality(const SchemaGraph& graph, ElementId owner,
                             const Neighbor& nbr) const;

  size_t num_elements() const { return card_.size(); }
  size_t num_structural_links() const { return slink_count_.size(); }
  size_t num_value_links() const { return vlink_count_.size(); }

  bool operator==(const Annotations&) const = default;

 private:
  /// The Figure 3 counting loop (annotate.cc) writes the arrays directly.
  friend class AnnotateSink;

  std::vector<uint64_t> card_;
  std::vector<uint64_t> slink_count_;
  std::vector<uint64_t> vlink_count_;
};

/// Runs the annotateSchema pass (Figure 3) over one depth-first traversal of
/// the database. Verifies stream well-formedness (parentage, balanced
/// enter/leave) and fails with FailedPrecondition on violations.
Result<Annotations> AnnotateSchema(const InstanceStream& stream);

/// Options for the sharded annotation pass.
struct ShardedAnnotateOptions {
  /// Number of instance shards. 0 picks 4 * ResolveThreadCount(threads)
  /// (enough slack for the thread pool to balance uneven unit subtrees);
  /// always clamped to [1, NumUnits()]. The result is bit-identical for
  /// every shard count, so the automatic choice never changes outputs.
  uint64_t shards = 0;
  /// Worker threads running the shards (ParallelFor); inherits the
  /// process-wide default / SSUM_THREADS resolution.
  ParallelOptions parallel;
};

/// Sharded annotateSchema over a splittable instance source: every shard
/// runs the Figure 3 counting walk over its unit sub-range into a private
/// Annotations, then shard results are reduced in index order with
/// Annotations::Merge on top of the skeleton pass. Counting is additive
/// over any partition of the event stream, so the result is bit-identical
/// to AnnotateSchema over the equivalent serial traversal — for any shard
/// count and any thread count (see docs/performance.md).
Result<Annotations> AnnotateSchemaSharded(
    const ShardedInstanceSource& source,
    const ShardedAnnotateOptions& options = {});

/// Annotates the unit subtrees [begin, end) of `source` only — no skeleton
/// events. Verifies each unit is a balanced subtree whose nested structure
/// matches the schema; the unit root's parent structural link is counted
/// exactly as a serial pass entering it under its container would.
Result<Annotations> AnnotateUnits(const ShardedInstanceSource& source,
                                  uint64_t begin, uint64_t end);

/// Derived per-adjacency metrics used by every formula in Section 3.
/// All vectors are aligned with graph.neighbors(e).
struct EdgeMetrics {
  /// rc[e][i] = RC(e -> neighbors(e)[i].other).
  std::vector<std::vector<double>> rc;
  /// w[e][i] = neighbor weight W (Formula 1): rc normalized over e's
  /// adjacency; uniform fallback when all RCs are zero so that weights
  /// always sum to 1 (preserving the importance-sum invariant).
  std::vector<std::vector<double>> w;
  /// edge_affinity[e][i] = min(rc, 1/rc) — single-step affinity. 1/rc per
  /// Formula 2 for rc >= 1; links with rc < 1 (rare/partial connections)
  /// attenuate to rc rather than inflating past 1, keeping multi-step
  /// affinities bounded (see DESIGN.md interpretation notes); 0 when rc = 0.
  std::vector<std::vector<double>> edge_affinity;
  /// mirror[e][i] = index j such that graph.neighbors(other)[j] is the same
  /// physical link viewed from the other endpoint.
  std::vector<std::vector<uint32_t>> mirror;

  static EdgeMetrics Compute(const SchemaGraph& graph,
                             const Annotations& annotations);
};

/// Elements whose matrix-relevant statistics differ between two
/// (annotations, metrics) pairs over the same schema: cardinality, per-edge
/// affinity row, or neighbor-weight row. This is the seed set for the
/// dirty-frontier closure of incremental matrix patching
/// (AffinityMatrix::TryPatch / CoverageMatrix::TryPatch): a walk row can
/// only change if it traverses an edge owned by one of these elements or
/// scales by a changed cardinality. Both metrics must be computed over the
/// same graph (mirror indices are structural and always match).
std::vector<ElementId> DirtyMetricElements(const Annotations& base,
                                           const EdgeMetrics& base_metrics,
                                           const Annotations& next,
                                           const EdgeMetrics& next_metrics);

}  // namespace ssum
