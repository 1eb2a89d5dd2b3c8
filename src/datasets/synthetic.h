#pragma once

#include <cstdint>

#include "schema/schema_graph.h"
#include "stats/annotate.h"

namespace ssum {

/// Deterministic synthetic schema generator for scaling experiments — a
/// down-payment on the ROADMAP's gMark-style benchmark item. The paper
/// datasets top out at a few hundred elements; scaling and deadline tests
/// need schemas one to two orders of magnitude larger, where the exact
/// MaxCoverage path is infeasible.
///
/// The generator grows a structural tree one element at a time: each new
/// element attaches to an existing non-Simple parent picked with a
/// skew-controlled bias toward early elements (producing a few high-fanout
/// hubs and many shallow leaves, like real document schemas), and becomes a
/// Simple leaf or a (possibly set-valued) record. A second pass sprinkles
/// value links between record elements, and a third derives skewed
/// cardinality annotations top-down: set-valued elements multiply their
/// parent's cardinality by a Poisson draw with an occasional heavy tail.
///
/// Everything is driven by one seed through forked Rng streams, so a given
/// parameter set always yields the identical graph and annotations —
/// across runs, platforms, and thread counts (generation is serial).
struct SyntheticSchemaParams {
  uint64_t seed = 42;
  /// Total element count including the root.
  size_t elements = 10000;
  /// Probability a new element is a Simple leaf (vs a record subtree).
  double simple_fraction = 0.45;
  /// Probability a new element is set-valued under its parent.
  double set_fraction = 0.35;
  /// Parent-choice bias exponent (> 0). Larger values concentrate fanout
  /// on early elements: the parent index is floor(|interior| * u^skew)
  /// for uniform u.
  double skew = 1.1;
  /// Probability a record element gets an outgoing value link.
  double value_link_fraction = 0.04;
  /// Mean per-parent multiplicity of set-valued elements (cardinality
  /// growth per tree level).
  double mean_multiplicity = 8.0;
  /// Cardinality ceiling, keeping deep chains finite.
  uint64_t max_card = 100000000;
};

struct SyntheticSchema {
  SchemaGraph graph;
  Annotations annotations;
};

SyntheticSchema BuildSyntheticSchema(const SyntheticSchemaParams& params);

}  // namespace ssum
