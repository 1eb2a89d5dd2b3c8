#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "schema/type.h"

namespace ssum {

/// Dense element identifier. Elements are numbered 0..size()-1 in insertion
/// order; the root is always element 0.
using ElementId = uint32_t;
inline constexpr ElementId kInvalidElement =
    std::numeric_limits<ElementId>::max();

/// Dense link identifier within its link class (structural or value).
using LinkId = uint32_t;

/// Largest element or value-link id a schema may hold. Ids travel in the
/// 30-bit id field of an instance event (instance/event_stream.h), so
/// AddElement / AddValueLink refuse to grow a schema past it.
inline constexpr uint32_t kMaxSchemaId = (uint32_t{1} << 30) - 1;

/// Structural link (e_parent ->S e_child), Definition 1.
struct StructuralLink {
  ElementId parent;
  ElementId child;
  bool operator==(const StructuralLink&) const = default;
};

/// Value link (e_referrer ->V e_referee), Definition 1. In the paper value
/// links syntactically connect Simple children but semantically connect the
/// enclosing parents; this struct stores the semantic (parent-level)
/// endpoints, with the Simple carriers kept for provenance.
struct ValueLink {
  ElementId referrer;
  ElementId referee;
  /// Simple elements that syntactically carry the link (e.g. bidder/@person
  /// and person/@id). kInvalidElement when the link was declared directly
  /// between the parents (e.g. relational FK groups).
  ElementId referrer_field = kInvalidElement;
  ElementId referee_field = kInvalidElement;
  bool operator==(const ValueLink&) const = default;
};

/// One adjacency entry of an element. Each physical link produces two
/// Neighbor records, one at each endpoint, with `forward` telling whether
/// the owning element is the link's origin (parent / referrer).
struct Neighbor {
  ElementId other;
  LinkId link;          ///< index into structural_links() or value_links()
  bool is_structural;
  bool forward;         ///< owner is parent (structural) / referrer (value)
};

/// Labeled directed schema graph SG = <E, S, V, r> (Definition 1).
///
/// Models both hierarchical (XML) and relational schemas:
///  - hierarchical: the element tree mirrors the document schema;
///  - relational: an artificial root has one structural child per relation
///    (SetOf Rcd), whose Simple children are the columns; foreign keys are
///    value links.
///
/// The graph is append-only: elements and value links may be added, never
/// removed. All derived indices (paths, depths, adjacency) stay valid.
class SchemaGraph {
 public:
  /// Creates a graph containing only the root element.
  explicit SchemaGraph(std::string root_label = "root",
                       ElementType root_type = ElementType::Rcd());

  /// Appends a child element under `parent`. Returns its id.
  /// Fails when `parent` is out of range or is a Simple element.
  Result<ElementId> AddElement(ElementId parent, std::string label,
                               ElementType type);

  /// Adds a value link between the (semantic) endpoints. The optional field
  /// arguments record the Simple carriers. Fails on out-of-range ids or
  /// self-links.
  Result<LinkId> AddValueLink(ElementId referrer, ElementId referee,
                              ElementId referrer_field = kInvalidElement,
                              ElementId referee_field = kInvalidElement);

  size_t size() const { return labels_.size(); }
  ElementId root() const { return 0; }

  const std::string& label(ElementId e) const { return labels_[e]; }
  const ElementType& type(ElementId e) const { return types_[e]; }
  /// Parent in the structural tree; kInvalidElement for the root.
  ElementId parent(ElementId e) const { return parents_[e]; }
  const std::vector<ElementId>& children(ElementId e) const {
    return children_[e];
  }
  /// Number of structural links from root to `e` (root depth 0).
  uint32_t depth(ElementId e) const { return depths_[e]; }
  /// Largest depth of any element: a well-formed instance never has more
  /// than height() + 1 nodes open at once.
  uint32_t height() const { return height_; }

  const std::vector<StructuralLink>& structural_links() const {
    return slinks_;
  }
  const std::vector<ValueLink>& value_links() const { return vlinks_; }

  /// Structural link connecting `child` to its parent; kInvalidElement-guarded:
  /// must not be called on the root.
  LinkId parent_link(ElementId child) const { return parent_link_[child]; }

  /// All adjacency records of `e` (structural + value, both directions).
  const std::vector<Neighbor>& neighbors(ElementId e) const {
    return neighbors_[e];
  }

  /// Total number of physical links.
  size_t num_links() const { return slinks_.size() + vlinks_.size(); }

  /// Slash-separated label path from root, e.g. "site/people/person".
  std::string PathOf(ElementId e) const;

  /// Resolves a slash-separated path. Root is addressed by its own label.
  Result<ElementId> FindPath(std::string_view path) const;

  /// All elements whose label equals `label` (labels are not unique).
  std::vector<ElementId> FindByLabel(std::string_view label) const;

  /// First element with the given label in insertion order, or error.
  Result<ElementId> FindFirstByLabel(std::string_view label) const;

  /// True when `ancestor` lies on the structural path from root to `e`
  /// (an element is its own ancestor).
  bool IsStructuralAncestor(ElementId ancestor, ElementId e) const;

  /// Elements in the structural subtree rooted at `e`, pre-order.
  std::vector<ElementId> Subtree(ElementId e) const;

  /// Human-readable multi-line dump (labels, types, links) for debugging.
  std::string DebugString() const;

 private:
  std::vector<std::string> labels_;
  std::vector<ElementType> types_;
  std::vector<ElementId> parents_;
  std::vector<LinkId> parent_link_;
  std::vector<uint32_t> depths_;
  uint32_t height_ = 0;
  std::vector<std::vector<ElementId>> children_;
  std::vector<StructuralLink> slinks_;
  std::vector<ValueLink> vlinks_;
  std::vector<std::vector<Neighbor>> neighbors_;
};

}  // namespace ssum
