#pragma once

#include <cstdint>

#include "common/status.h"
#include "instance/event_stream.h"
#include "schema/schema_graph.h"

namespace ssum {

/// A database instance traversable as independent slices, the enabler for
/// sharding annotateSchema (paper Figure 3) over the instance stream.
///
/// The full pre-order traversal an InstanceStream emits is decomposed into
///   - a *skeleton*: the root and the section containers on the path from
///     the root down to the entity subtrees — every event of the serial
///     traversal that lies outside a unit subtree, emitted exactly once; and
///   - `NumUnits()` *units*: complete enter..leave subtree traversals, each
///     rooted at a non-root element directly under a skeleton node and
///     independent of every other unit.
///
/// Partitioning [0, NumUnits()) arbitrarily, annotating the skeleton plus
/// every part with its own private Annotations and summing the counters
/// (Annotations::Merge) yields exactly the counters of one serial pass:
/// annotation counting is additive over any partition of the event stream.
///
/// Concrete sources and their split points:
///   - XML documents: one unit per top-level child of the document root
///     (xml/instance_bridge.h);
///   - relational databases: one unit per row, tables concatenated in
///     catalog order (relational/bridge.h);
///   - generated datasets: one unit per top-level entity (item, person,
///     auction, molecule, table row, ...), generator sub-ranges re-seeded
///     per unit so any sub-range replays without the preceding events
///     (datasets/xmark.h, datasets/tpch.h, datasets/mimi.h);
///   - in-memory trees: one unit per child of the root node
///     (instance/data_tree.h).
class ShardedInstanceSource {
 public:
  virtual ~ShardedInstanceSource() = default;

  /// Schema the instance conforms to. Must outlive the source.
  virtual const SchemaGraph& schema() const = 0;

  /// Number of independently traversable unit subtrees.
  virtual uint64_t NumUnits() const = 0;

  /// Runs the skeleton into `sink` as a well-formed root-anchored stream:
  /// every event of the full traversal outside the unit subtrees, exactly
  /// once.
  Status AcceptSkeleton(EventSink* sink) const;

  /// Runs the unit subtrees with indices [begin, end) into `sink`, in index
  /// order. Each unit is a complete enter..leave sequence whose root is a
  /// non-root schema element; consecutive units need not share a parent.
  /// Fails with InvalidArgument when end > NumUnits() or begin > end. May be
  /// called concurrently from multiple threads on disjoint ranges.
  Status AcceptUnits(uint64_t begin, uint64_t end, EventSink* sink) const;

 protected:
  /// Writes the skeleton's events.
  virtual Status EmitSkeleton(EventWriter* out) const = 0;

  /// Writes the events of units [begin, end); the range is already checked
  /// against NumUnits().
  virtual Status EmitUnits(uint64_t begin, uint64_t end,
                           EventWriter* out) const = 0;
};

/// Half-open unit range of one shard.
struct UnitRange {
  uint64_t begin = 0;
  uint64_t end = 0;

  uint64_t size() const { return end - begin; }
};

/// Deterministic even split of [0, num_units) into num_shards contiguous
/// ranges (sizes differ by at most one). Depends only on its arguments —
/// never on thread counts — so per-shard results reduced in shard order are
/// identical for any execution schedule. `shard` must be < num_shards.
UnitRange ShardUnitRange(uint64_t num_units, uint64_t shard,
                         uint64_t num_shards);

}  // namespace ssum
