#pragma once

#include <vector>

#include "common/result.h"
#include "instance/event_stream.h"
#include "instance/sharded_stream.h"
#include "schema/schema_graph.h"
#include "stats/annotate.h"
#include "xml/parser.h"

namespace ssum {

/// Adapts a parsed XML document into an InstanceStream over a given schema,
/// so that annotateSchema runs directly on documents.
///
/// Element resolution is by label under the current schema context
/// (attributes resolve as "@name"). Value-link reference instances are
/// emitted from the link's declared referrer carrier field: one reference
/// per instance of the carrier (attribute occurrence or child element) on a
/// referrer node. Reference *targets* are not resolved — annotation needs
/// only instance counts (paper Figure 3).
/// Also a ShardedInstanceSource: one unit per top-level child of the
/// document root, so large documents annotate in parallel sub-ranges.
class XmlInstanceStream : public InstanceStream,
                          public ShardedInstanceSource {
 public:
  /// `schema` and `doc` must outlive the stream. Fails later, in Accept(),
  /// when the document does not match the schema.
  XmlInstanceStream(const SchemaGraph* schema, const XmlDocument* doc);

  const SchemaGraph& schema() const override { return *schema_; }

  // ShardedInstanceSource: units are the root element's child elements; the
  // skeleton is the root node itself with its references and attributes.
  uint64_t NumUnits() const override { return doc_->root.children.size(); }

 private:
  Status Emit(EventWriter* out) const override;
  Status EmitSkeleton(EventWriter* out) const override;
  Status EmitUnits(uint64_t begin, uint64_t end,
                   EventWriter* out) const override;
  Status Walk(EventWriter* out, const XmlElement& elem,
              ElementId element) const;
  /// Emits the open-node events of `elem` (references, then attribute
  /// leaves) — everything Walk does before recursing into child elements.
  Status EmitNodeEvents(EventWriter* out, const XmlElement& elem,
                        ElementId element) const;
  Result<ElementId> ResolveChild(ElementId element,
                                 const XmlElement& child) const;
  Status CheckRoot() const;

  const SchemaGraph* schema_;
  const XmlDocument* doc_;
  /// Per element: value links for which this element is the referrer,
  /// paired with the carrier label (from the link's referrer_field).
  std::vector<std::vector<std::pair<LinkId, std::string>>> carriers_;
};

/// Convenience: annotates `doc` against an explicit schema. `options`
/// carries the shard/thread split and the cooperative deadline (checked at
/// shard boundaries; an expired budget returns kDeadlineExceeded).
Result<Annotations> AnnotateXmlDocument(const SchemaGraph& schema,
                                        const XmlDocument& doc,
                                        const ShardedAnnotateOptions& options = {});

}  // namespace ssum
