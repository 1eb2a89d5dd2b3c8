#include "schema/schema_graph.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"

namespace ssum {

SchemaGraph::SchemaGraph(std::string root_label, ElementType root_type) {
  labels_.push_back(std::move(root_label));
  root_type.set_of = false;  // the root is a single document / catalog
  types_.push_back(root_type);
  parents_.push_back(kInvalidElement);
  parent_link_.push_back(kInvalidElement);
  depths_.push_back(0);
  children_.emplace_back();
  neighbors_.emplace_back();
}

Result<ElementId> SchemaGraph::AddElement(ElementId parent, std::string label,
                                          ElementType type) {
  if (parent >= size()) {
    return Status::InvalidArgument("AddElement: parent id out of range");
  }
  if (types_[parent].kind == TypeKind::kSimple) {
    return Status::InvalidArgument("AddElement: parent '" + labels_[parent] +
                                   "' is a Simple element");
  }
  if (label.empty()) {
    return Status::InvalidArgument("AddElement: empty label");
  }
  if (size() > kMaxSchemaId) {
    return Status::InvalidArgument(
        "AddElement: schema already holds the maximum of " +
        std::to_string(size()) + " elements");
  }
  ElementId id = static_cast<ElementId>(size());
  LinkId link = static_cast<LinkId>(slinks_.size());
  labels_.push_back(std::move(label));
  types_.push_back(type);
  parents_.push_back(parent);
  parent_link_.push_back(link);
  depths_.push_back(depths_[parent] + 1);
  height_ = std::max(height_, depths_.back());
  children_.emplace_back();
  neighbors_.emplace_back();
  children_[parent].push_back(id);
  slinks_.push_back({parent, id});
  neighbors_[parent].push_back({id, link, /*is_structural=*/true,
                                /*forward=*/true});
  neighbors_[id].push_back({parent, link, /*is_structural=*/true,
                            /*forward=*/false});
  return id;
}

Result<LinkId> SchemaGraph::AddValueLink(ElementId referrer, ElementId referee,
                                         ElementId referrer_field,
                                         ElementId referee_field) {
  if (referrer >= size() || referee >= size()) {
    return Status::InvalidArgument("AddValueLink: endpoint id out of range");
  }
  if (referrer == referee) {
    return Status::InvalidArgument("AddValueLink: self link on '" +
                                   labels_[referrer] + "'");
  }
  if (referrer_field != kInvalidElement && referrer_field >= size()) {
    return Status::InvalidArgument("AddValueLink: referrer field out of range");
  }
  if (referee_field != kInvalidElement && referee_field >= size()) {
    return Status::InvalidArgument("AddValueLink: referee field out of range");
  }
  if (vlinks_.size() > kMaxSchemaId) {
    return Status::InvalidArgument(
        "AddValueLink: schema already holds the maximum of " +
        std::to_string(vlinks_.size()) + " value links");
  }
  LinkId link = static_cast<LinkId>(vlinks_.size());
  vlinks_.push_back({referrer, referee, referrer_field, referee_field});
  neighbors_[referrer].push_back({referee, link, /*is_structural=*/false,
                                  /*forward=*/true});
  neighbors_[referee].push_back({referrer, link, /*is_structural=*/false,
                                 /*forward=*/false});
  return link;
}

std::string SchemaGraph::PathOf(ElementId e) const {
  SSUM_CHECK(e < size(), "PathOf: element out of range");
  std::vector<std::string_view> parts;
  for (ElementId cur = e; cur != kInvalidElement; cur = parents_[cur]) {
    parts.push_back(labels_[cur]);
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!out.empty()) out += '/';
    out += *it;
  }
  return out;
}

Result<ElementId> SchemaGraph::FindPath(std::string_view path) const {
  std::vector<std::string> parts = SplitString(path, '/');
  if (parts.empty()) return Status::InvalidArgument("FindPath: empty path");
  size_t idx = 0;
  ElementId cur = root();
  if (parts[0] == labels_[root()]) {
    idx = 1;  // path may start with the root label
  }
  for (; idx < parts.size(); ++idx) {
    ElementId next = kInvalidElement;
    for (ElementId c : children_[cur]) {
      if (labels_[c] == parts[idx]) {
        next = c;
        break;
      }
    }
    if (next == kInvalidElement) {
      return Status::NotFound("FindPath: no child '" + parts[idx] +
                              "' under '" + PathOf(cur) + "'");
    }
    cur = next;
  }
  return cur;
}

std::vector<ElementId> SchemaGraph::FindByLabel(std::string_view label) const {
  std::vector<ElementId> out;
  for (ElementId e = 0; e < size(); ++e) {
    if (labels_[e] == label) out.push_back(e);
  }
  return out;
}

Result<ElementId> SchemaGraph::FindFirstByLabel(std::string_view label) const {
  for (ElementId e = 0; e < size(); ++e) {
    if (labels_[e] == label) return e;
  }
  return Status::NotFound("no element labeled '" + std::string(label) + "'");
}

bool SchemaGraph::IsStructuralAncestor(ElementId ancestor, ElementId e) const {
  SSUM_CHECK(ancestor < size() && e < size(), "ancestor test out of range");
  for (ElementId cur = e; cur != kInvalidElement; cur = parents_[cur]) {
    if (cur == ancestor) return true;
    // Early exit: depth is monotone along the parent chain.
    if (depths_[cur] < depths_[ancestor]) return false;
  }
  return false;
}

std::vector<ElementId> SchemaGraph::Subtree(ElementId e) const {
  SSUM_CHECK(e < size(), "Subtree: element out of range");
  std::vector<ElementId> out;
  std::vector<ElementId> stack{e};
  while (!stack.empty()) {
    ElementId cur = stack.back();
    stack.pop_back();
    out.push_back(cur);
    const auto& kids = children_[cur];
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  return out;
}

std::string SchemaGraph::DebugString() const {
  std::ostringstream os;
  os << "SchemaGraph(" << size() << " elements, " << slinks_.size()
     << " structural links, " << vlinks_.size() << " value links)\n";
  for (ElementId e = 0; e < size(); ++e) {
    os << "  [" << e << "] " << PathOf(e) << " : " << TypeToString(types_[e])
       << "\n";
  }
  for (const auto& v : vlinks_) {
    os << "  vlink " << labels_[v.referrer] << " -> " << labels_[v.referee]
       << "\n";
  }
  return os.str();
}

}  // namespace ssum
