#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "instance/event_stream.h"
#include "instance/sharded_stream.h"
#include "schema/schema_graph.h"

namespace ssum {

/// Dense data-node identifier within a DataTree.
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = 0xffffffffu;

/// In-memory database instance: a tree of data nodes typed by schema
/// elements, plus value-link reference instances. Suitable for small
/// databases, parsed XML documents, and tests; the large synthetic datasets
/// use streaming generators instead.
///
/// Also a ShardedInstanceSource: one unit per child of the root node, so
/// annotation shards over the top-level subtrees.
class DataTree : public InstanceStream, public ShardedInstanceSource {
 public:
  /// Creates a tree containing a single root node typed by schema.root().
  /// `schema` must outlive the tree.
  explicit DataTree(const SchemaGraph* schema);

  /// Adds a data node of schema element `element` under `parent`. The
  /// element's schema parent must equal the parent node's element.
  Result<NodeId> AddNode(NodeId parent, ElementId element,
                         std::string value = {});

  /// Records one reference instance along value link `vlink`, originating at
  /// `referrer_node` (whose element must equal the link's referrer) and
  /// targeting `referee_node` (element must equal the link's referee).
  Status AddReference(LinkId vlink, NodeId referrer_node, NodeId referee_node);

  NodeId root() const { return 0; }
  size_t size() const { return elements_.size(); }

  ElementId element(NodeId n) const { return elements_[n]; }
  NodeId parent(NodeId n) const { return parents_[n]; }
  const std::string& value(NodeId n) const { return values_[n]; }
  const std::vector<NodeId>& children(NodeId n) const { return children_[n]; }

  struct Reference {
    LinkId vlink;
    NodeId referrer;
    NodeId referee;
  };
  const std::vector<Reference>& references() const { return references_; }

  /// Outgoing references of a node (indices into references()).
  const std::vector<uint32_t>& node_references(NodeId n) const {
    return node_refs_[n];
  }

  // InstanceStream and ShardedInstanceSource:
  const SchemaGraph& schema() const override { return *schema_; }
  uint64_t NumUnits() const override { return children_[root()].size(); }

 private:
  Status Emit(EventWriter* out) const override;
  Status EmitSkeleton(EventWriter* out) const override;
  Status EmitUnits(uint64_t begin, uint64_t end,
                   EventWriter* out) const override;

  /// Emits the complete subtree rooted at `start` (enter, refs, children,
  /// leave; a leaf for a node with neither children nor references).
  void WalkSubtree(NodeId start, EventWriter* out) const;
  /// Opens `node`: a leaf event when it has neither children nor references
  /// (returns false), else its enter and reference events (returns true).
  bool Open(NodeId node, EventWriter* out) const;

  const SchemaGraph* schema_;
  std::vector<ElementId> elements_;
  std::vector<NodeId> parents_;
  std::vector<std::string> values_;
  std::vector<std::vector<NodeId>> children_;
  std::vector<Reference> references_;
  std::vector<std::vector<uint32_t>> node_refs_;
};

}  // namespace ssum
