#include "xml/instance_bridge.h"

#include "stats/annotate.h"

namespace ssum {

XmlInstanceStream::XmlInstanceStream(const SchemaGraph* schema,
                                     const XmlDocument* doc)
    : schema_(schema), doc_(doc), carriers_(schema->size()) {
  for (LinkId l = 0; l < schema_->value_links().size(); ++l) {
    const ValueLink& v = schema_->value_links()[l];
    if (v.referrer_field == kInvalidElement) continue;
    carriers_[v.referrer].emplace_back(l, schema_->label(v.referrer_field));
  }
}

Status XmlInstanceStream::EmitNodeEvents(EventWriter* out,
                                         const XmlElement& elem,
                                         ElementId element) const {
  // References first: the annotator requires them while this node is open
  // and before any child node is entered — both orders are legal, this one
  // is simplest.
  for (const auto& [link, carrier_label] : carriers_[element]) {
    if (!carrier_label.empty() && carrier_label[0] == '@') {
      std::string_view attr_name =
          std::string_view(carrier_label).substr(1);
      for (const auto& [name, value] : elem.attributes) {
        if (name == attr_name && !value.empty()) out->Reference(link);
      }
    } else {
      for (const XmlElement& child : elem.children) {
        if (child.name == carrier_label && !child.text.empty()) {
          out->Reference(link);
        }
      }
    }
  }
  // Attributes become Simple data nodes.
  for (const auto& [name, value] : elem.attributes) {
    std::string label = "@" + name;
    ElementId attr_elem = kInvalidElement;
    for (ElementId c : schema_->children(element)) {
      if (schema_->label(c) == label) {
        attr_elem = c;
        break;
      }
    }
    if (attr_elem == kInvalidElement) {
      return Status::FailedPrecondition("attribute '" + label +
                                        "' not declared under '" +
                                        schema_->PathOf(element) + "'");
    }
    out->Leaf(attr_elem);
    (void)value;
  }
  return Status::OK();
}

Result<ElementId> XmlInstanceStream::ResolveChild(
    ElementId element, const XmlElement& child) const {
  for (ElementId c : schema_->children(element)) {
    if (schema_->label(c) == child.name) return c;
  }
  return Status::FailedPrecondition("element '" + child.name +
                                    "' not declared under '" +
                                    schema_->PathOf(element) + "'");
}

Status XmlInstanceStream::Walk(EventWriter* out, const XmlElement& elem,
                               ElementId element) const {
  if (elem.children.empty() && elem.attributes.empty() &&
      carriers_[element].empty()) {
    out->Leaf(element);  // no node events and no children to emit
    return Status::OK();
  }
  out->Enter(element);
  SSUM_RETURN_NOT_OK(EmitNodeEvents(out, elem, element));
  for (const XmlElement& child : elem.children) {
    ElementId child_elem;
    SSUM_ASSIGN_OR_RETURN(child_elem, ResolveChild(element, child));
    SSUM_RETURN_NOT_OK(Walk(out, child, child_elem));
  }
  out->Leave(element);
  return Status::OK();
}

Status XmlInstanceStream::CheckRoot() const {
  if (doc_->root.name != schema_->label(schema_->root())) {
    return Status::FailedPrecondition(
        "document root '" + doc_->root.name + "' does not match schema root '" +
        schema_->label(schema_->root()) + "'");
  }
  return Status::OK();
}

Status XmlInstanceStream::Emit(EventWriter* out) const {
  SSUM_RETURN_NOT_OK(CheckRoot());
  return Walk(out, doc_->root, schema_->root());
}

Status XmlInstanceStream::EmitSkeleton(EventWriter* out) const {
  SSUM_RETURN_NOT_OK(CheckRoot());
  out->Enter(schema_->root());
  SSUM_RETURN_NOT_OK(EmitNodeEvents(out, doc_->root, schema_->root()));
  out->Leave(schema_->root());
  return Status::OK();
}

Status XmlInstanceStream::EmitUnits(uint64_t begin, uint64_t end,
                                    EventWriter* out) const {
  SSUM_RETURN_NOT_OK(CheckRoot());
  for (uint64_t u = begin; u < end; ++u) {
    const XmlElement& child = doc_->root.children[u];
    ElementId child_elem;
    SSUM_ASSIGN_OR_RETURN(child_elem, ResolveChild(schema_->root(), child));
    SSUM_RETURN_NOT_OK(Walk(out, child, child_elem));
  }
  return Status::OK();
}

Result<Annotations> AnnotateXmlDocument(const SchemaGraph& schema,
                                        const XmlDocument& doc,
                                        const ShardedAnnotateOptions& options) {
  // Sharded over the root's top-level children — bit-identical to the
  // serial walk for any shard/thread count, parallel for large documents.
  XmlInstanceStream stream(&schema, &doc);
  return AnnotateSchemaSharded(stream, options);
}

}  // namespace ssum
