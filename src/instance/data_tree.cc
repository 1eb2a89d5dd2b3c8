#include "instance/data_tree.h"

namespace ssum {

DataTree::DataTree(const SchemaGraph* schema) : schema_(schema) {
  elements_.push_back(schema_->root());
  parents_.push_back(kInvalidNode);
  values_.emplace_back();
  children_.emplace_back();
  node_refs_.emplace_back();
}

Result<NodeId> DataTree::AddNode(NodeId parent, ElementId element,
                                 std::string value) {
  if (parent >= size()) {
    return Status::InvalidArgument("AddNode: parent node out of range");
  }
  if (element >= schema_->size()) {
    return Status::InvalidArgument("AddNode: element out of range");
  }
  if (schema_->parent(element) != elements_[parent]) {
    return Status::InvalidArgument(
        "AddNode: schema parent of '" + schema_->label(element) +
        "' does not match parent node element '" +
        schema_->label(elements_[parent]) + "'");
  }
  NodeId id = static_cast<NodeId>(size());
  elements_.push_back(element);
  parents_.push_back(parent);
  values_.push_back(std::move(value));
  children_.emplace_back();
  node_refs_.emplace_back();
  children_[parent].push_back(id);
  return id;
}

Status DataTree::AddReference(LinkId vlink, NodeId referrer_node,
                              NodeId referee_node) {
  if (vlink >= schema_->value_links().size()) {
    return Status::InvalidArgument("AddReference: vlink out of range");
  }
  if (referrer_node >= size() || referee_node >= size()) {
    return Status::InvalidArgument("AddReference: node out of range");
  }
  const ValueLink& link = schema_->value_links()[vlink];
  if (elements_[referrer_node] != link.referrer) {
    return Status::InvalidArgument("AddReference: referrer node element '" +
                                   schema_->label(elements_[referrer_node]) +
                                   "' does not match link referrer '" +
                                   schema_->label(link.referrer) + "'");
  }
  if (elements_[referee_node] != link.referee) {
    return Status::InvalidArgument("AddReference: referee node element '" +
                                   schema_->label(elements_[referee_node]) +
                                   "' does not match link referee '" +
                                   schema_->label(link.referee) + "'");
  }
  uint32_t idx = static_cast<uint32_t>(references_.size());
  references_.push_back({vlink, referrer_node, referee_node});
  node_refs_[referrer_node].push_back(idx);
  return Status::OK();
}

bool DataTree::Open(NodeId node, EventWriter* out) const {
  if (children_[node].empty() && node_refs_[node].empty()) {
    out->Leaf(elements_[node]);
    return false;
  }
  out->Enter(elements_[node]);
  for (uint32_t r : node_refs_[node]) out->Reference(references_[r].vlink);
  return true;
}

void DataTree::WalkSubtree(NodeId start, EventWriter* out) const {
  // Iterative depth-first pre-order with explicit leave events.
  struct Frame {
    NodeId node;
    size_t next_child;
  };
  std::vector<Frame> stack;
  if (Open(start, out)) stack.push_back({start, 0});
  while (!stack.empty()) {
    Frame& top = stack.back();
    const auto& kids = children_[top.node];
    if (top.next_child < kids.size()) {
      NodeId child = kids[top.next_child++];
      if (Open(child, out)) stack.push_back({child, 0});
    } else {
      out->Leave(elements_[top.node]);
      stack.pop_back();
    }
  }
}

Status DataTree::Emit(EventWriter* out) const {
  WalkSubtree(root(), out);
  return Status::OK();
}

Status DataTree::EmitSkeleton(EventWriter* out) const {
  out->Enter(elements_[root()]);
  for (uint32_t r : node_refs_[root()]) out->Reference(references_[r].vlink);
  out->Leave(elements_[root()]);
  return Status::OK();
}

Status DataTree::EmitUnits(uint64_t begin, uint64_t end,
                           EventWriter* out) const {
  const auto& kids = children_[root()];
  for (uint64_t u = begin; u < end; ++u) WalkSubtree(kids[u], out);
  return Status::OK();
}

}  // namespace ssum
