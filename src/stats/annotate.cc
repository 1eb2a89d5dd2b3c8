#include "stats/annotate.h"

#include <algorithm>

#include "common/logging.h"

namespace ssum {

Annotations::Annotations(const SchemaGraph& graph)
    : card_(graph.size(), 0),
      slink_count_(graph.structural_links().size(), 0),
      vlink_count_(graph.value_links().size(), 0) {}

Annotations Annotations::Uniform(const SchemaGraph& graph) {
  Annotations a(graph);
  std::fill(a.card_.begin(), a.card_.end(), 1);
  std::fill(a.slink_count_.begin(), a.slink_count_.end(), 1);
  std::fill(a.vlink_count_.begin(), a.vlink_count_.end(), 1);
  return a;
}

double Annotations::TotalCard() const {
  double total = 0;
  for (uint64_t c : card_) total += static_cast<double>(c);
  return total;
}

uint64_t Annotations::TotalNodes() const {
  uint64_t total = 0;
  for (uint64_t c : card_) total += c;
  return total;
}

Status Annotations::Merge(const Annotations& other) {
  if (card_.size() != other.card_.size() ||
      slink_count_.size() != other.slink_count_.size() ||
      vlink_count_.size() != other.vlink_count_.size()) {
    return Status::FailedPrecondition(
        "Annotations::Merge: shape mismatch (" +
        std::to_string(card_.size()) + "/" +
        std::to_string(slink_count_.size()) + "/" +
        std::to_string(vlink_count_.size()) + " vs " +
        std::to_string(other.card_.size()) + "/" +
        std::to_string(other.slink_count_.size()) + "/" +
        std::to_string(other.vlink_count_.size()) +
        " elements/structural/value entries)");
  }
  for (size_t e = 0; e < card_.size(); ++e) card_[e] += other.card_[e];
  for (size_t l = 0; l < slink_count_.size(); ++l) {
    slink_count_[l] += other.slink_count_[l];
  }
  for (size_t l = 0; l < vlink_count_.size(); ++l) {
    vlink_count_[l] += other.vlink_count_[l];
  }
  return Status::OK();
}

Status Annotations::Subtract(const Annotations& other) {
  if (card_.size() != other.card_.size() ||
      slink_count_.size() != other.slink_count_.size() ||
      vlink_count_.size() != other.vlink_count_.size()) {
    return Status::FailedPrecondition(
        "Annotations::Subtract: shape mismatch (" +
        std::to_string(card_.size()) + "/" +
        std::to_string(slink_count_.size()) + "/" +
        std::to_string(vlink_count_.size()) + " vs " +
        std::to_string(other.card_.size()) + "/" +
        std::to_string(other.slink_count_.size()) + "/" +
        std::to_string(other.vlink_count_.size()) +
        " elements/structural/value entries)");
  }
  // Validate before mutating: a failed Subtract must leave this intact so
  // the caller can fall back to a cold pass on the unharmed base.
  for (size_t e = 0; e < card_.size(); ++e) {
    if (other.card_[e] > card_[e]) {
      return Status::FailedPrecondition(
          "Annotations::Subtract: cardinality underflow at element " +
          std::to_string(e));
    }
  }
  for (size_t l = 0; l < slink_count_.size(); ++l) {
    if (other.slink_count_[l] > slink_count_[l]) {
      return Status::FailedPrecondition(
          "Annotations::Subtract: structural-count underflow at link " +
          std::to_string(l));
    }
  }
  for (size_t l = 0; l < vlink_count_.size(); ++l) {
    if (other.vlink_count_[l] > vlink_count_[l]) {
      return Status::FailedPrecondition(
          "Annotations::Subtract: value-count underflow at link " +
          std::to_string(l));
    }
  }
  for (size_t e = 0; e < card_.size(); ++e) card_[e] -= other.card_[e];
  for (size_t l = 0; l < slink_count_.size(); ++l) {
    slink_count_[l] -= other.slink_count_[l];
  }
  for (size_t l = 0; l < vlink_count_.size(); ++l) {
    vlink_count_[l] -= other.vlink_count_[l];
  }
  return Status::OK();
}

double Annotations::RelativeCardinality(const SchemaGraph& graph,
                                        ElementId owner,
                                        const Neighbor& nbr) const {
  (void)graph;
  uint64_t owner_card = card_[owner];
  if (owner_card == 0) return 0.0;
  uint64_t count =
      nbr.is_structural ? slink_count_[nbr.link] : vlink_count_[nbr.link];
  return static_cast<double>(count) / static_cast<double>(owner_card);
}

/// Figure 3 as an event sink: counts element and link instances block by
/// block while checking the stream is a well-formed pre-order traversal.
///
/// Two anchoring modes:
///   - kRoot (AnnotateSchema): the stream is one full traversal — the first
///     node must be the schema root.
///   - kSubtrees (AnnotateUnits): the stream is a sequence of complete unit
///     subtrees rooted at non-root elements. Each unit root counts its
///     parent structural link exactly as the serial pass entering it under
///     its container does, so per-shard results merge to the serial counts.
///
/// One non-virtual loop per block over flat tables copied from the schema.
/// Every node entered below the first is a schema child of the open node
/// above it, so the open nodes lie on one root-to-leaf schema path: the
/// stack never holds more than schema.height() + 1 entries and is sized
/// once, with no bounds check on push. Anchoring a node at depth 0 and
/// building error messages run out of line.
class AnnotateSink final : public EventSink {
 public:
  enum class Anchor { kRoot, kSubtrees };

  AnnotateSink(const SchemaGraph& schema, Anchor anchor)
      : schema_(schema),
        anchor_(anchor),
        annotations_(schema),
        parent_(schema.size()),
        parent_link_(schema.size()),
        referrer_(schema.value_links().size()),
        stack_(schema.height() + 1) {
    for (ElementId e = 0; e < schema.size(); ++e) {
      parent_[e] = schema.parent(e);
      parent_link_[e] = schema.parent_link(e);
    }
    for (LinkId l = 0; l < referrer_.size(); ++l) {
      referrer_[l] = schema.value_links()[l].referrer;
    }
  }

  void Consume(const Event* events, size_t n) override {
    if (!status_.ok()) return;
    const ElementId* const parent = parent_.data();
    const LinkId* const parent_link = parent_link_.data();
    const ElementId* const referrer = referrer_.data();
    const uint32_t num_elements = static_cast<uint32_t>(parent_.size());
    const uint32_t num_vlinks = static_cast<uint32_t>(referrer_.size());
    uint64_t* const card = annotations_.card_.data();
    uint64_t* const slink = annotations_.slink_count_.data();
    uint64_t* const vlink = annotations_.vlink_count_.data();
    ElementId* const stack = stack_.data();
    size_t depth = depth_;
    for (size_t i = 0; i < n; ++i) {
      const EventTag tag = EventTagOf(events[i]);
      const uint32_t id = EventIdOf(events[i]);
      if (tag == EventTag::kReference) {
        if (id >= num_vlinks || depth == 0 || referrer[id] != stack[depth - 1])
            [[unlikely]] {
          return FailReference(id, depth);
        }
        ++vlink[id];
      } else if (tag == EventTag::kLeave) {
        if (depth == 0 || stack[depth - 1] != id) [[unlikely]] {
          return Fail("stream: unbalanced leave event");
        }
        --depth;
      } else {  // kEnter or kLeaf
        if (id >= num_elements) [[unlikely]] {
          return Fail("stream: element id out of range");
        }
        if (depth > 0) {
          if (parent[id] != stack[depth - 1]) [[unlikely]] {
            return FailParent(id, stack[depth - 1]);
          }
          ++slink[parent_link[id]];
        } else if (!EnterAtTop(id)) {
          return;
        }
        ++card[id];
        if (tag == EventTag::kEnter) stack[depth++] = id;
      }
    }
    depth_ = depth;
  }

  /// The counts once the traversal is over; `traversal` is the status of
  /// the source's run, which wins over any error the sink saw.
  Result<Annotations> Finish(const Status& traversal) {
    SSUM_RETURN_NOT_OK(traversal);
    SSUM_RETURN_NOT_OK(status_);
    if (depth_ != 0) {
      return Status::FailedPrecondition("stream: unclosed nodes at end");
    }
    return std::move(annotations_);
  }

 private:
  /// A node entered with nothing open: the root of the traversal (kRoot)
  /// or of the next unit (kSubtrees). The caller counts the node itself.
  [[gnu::noinline]] bool EnterAtTop(ElementId e) {
    if (anchor_ == Anchor::kSubtrees) {
      if (e == schema_.root()) {
        Fail("stream: unit subtree rooted at the schema root");
        return false;
      }
      // The unit's container is not part of this shard's stream; count the
      // container -> unit-root link the serial pass would count.
      annotations_.increment_structural(schema_.parent_link(e));
      return true;
    }
    if (e != schema_.root()) {
      Fail("stream: first node is not the schema root");
      return false;
    }
    return true;
  }

  [[gnu::cold, gnu::noinline]] void Fail(const char* message) {
    status_ = Status::FailedPrecondition(message);
  }

  [[gnu::cold, gnu::noinline]] void FailParent(ElementId e, ElementId open) {
    const ElementId expected = schema_.parent(e);
    status_ = Status::FailedPrecondition(
        "stream: node '" + schema_.label(e) +
        "' entered under node of element '" + schema_.label(open) +
        "' but its schema parent is '" +
        (expected == kInvalidElement ? std::string("<none>")
                                     : schema_.label(expected)) +
        "'");
  }

  [[gnu::cold, gnu::noinline]] void FailReference(LinkId l, size_t depth) {
    if (l >= referrer_.size()) return Fail("stream: vlink id out of range");
    if (depth == 0) return Fail("stream: reference outside a node");
    status_ = Status::FailedPrecondition(
        "stream: reference emitted by element '" +
        schema_.label(stack_[depth - 1]) + "' but link referrer is '" +
        schema_.label(referrer_[l]) + "'");
  }

  const SchemaGraph& schema_;
  const Anchor anchor_;
  Annotations annotations_;
  // Flat copies of the schema's per-id tables.
  std::vector<ElementId> parent_;
  std::vector<LinkId> parent_link_;
  std::vector<ElementId> referrer_;
  std::vector<ElementId> stack_;
  size_t depth_ = 0;
  Status status_;
};

Result<Annotations> AnnotateSchema(const InstanceStream& stream) {
  AnnotateSink sink(stream.schema(), AnnotateSink::Anchor::kRoot);
  return sink.Finish(stream.Accept(&sink));
}

Result<Annotations> AnnotateUnits(const ShardedInstanceSource& source,
                                  uint64_t begin, uint64_t end) {
  AnnotateSink sink(source.schema(), AnnotateSink::Anchor::kSubtrees);
  return sink.Finish(source.AcceptUnits(begin, end, &sink));
}

Result<Annotations> AnnotateSchemaSharded(const ShardedInstanceSource& source,
                                          const ShardedAnnotateOptions& options) {
  SSUM_RETURN_NOT_OK(options.parallel.deadline.Check("sharded annotation"));
  const uint64_t units = source.NumUnits();
  uint64_t shards = options.shards;
  if (shards == 0) {
    // Enough shards per thread that uneven unit subtrees still balance.
    shards = static_cast<uint64_t>(
                 ResolveThreadCount(options.parallel.threads)) *
             4;
  }
  shards = std::max<uint64_t>(1, std::min(shards, std::max<uint64_t>(1, units)));

  AnnotateSink skeleton(source.schema(), AnnotateSink::Anchor::kRoot);
  Annotations total;
  SSUM_ASSIGN_OR_RETURN(total,
                        skeleton.Finish(source.AcceptSkeleton(&skeleton)));

  // One private Annotations per shard; ParallelFor's chunk schedule never
  // affects which shard writes which slot, so the reduction below is the
  // same for any thread count.
  // Passing the full ParallelOptions (not just the width) is what carries
  // the deadline to every shard claim: an expired budget fails the
  // remaining shards with kDeadlineExceeded instead of parsing them.
  std::vector<Annotations> parts(shards);
  std::vector<Status> statuses(shards, Status::OK());
  SSUM_RETURN_NOT_OK(ParallelFor(
      0, shards, 1,
      [&](size_t s) {
        UnitRange range = ShardUnitRange(units, s, shards);
        auto part = AnnotateUnits(source, range.begin, range.end);
        if (part.ok()) {
          parts[s] = std::move(*part);
        } else {
          statuses[s] = part.status();
        }
      },
      options.parallel));
  for (const Status& s : statuses) SSUM_RETURN_NOT_OK(s);
  // Counter addition is associative and commutative over uint64, but merge
  // in index order anyway: the reduction order is then a fixed, documented
  // property rather than an accident of scheduling.
  for (Annotations& part : parts) SSUM_RETURN_NOT_OK(total.Merge(part));
  return total;
}

std::vector<ElementId> DirtyMetricElements(const Annotations& base,
                                           const EdgeMetrics& base_metrics,
                                           const Annotations& next,
                                           const EdgeMetrics& next_metrics) {
  SSUM_CHECK(base.num_elements() == next.num_elements() &&
                 base_metrics.edge_affinity.size() ==
                     next_metrics.edge_affinity.size(),
             "DirtyMetricElements: annotations of different schemas");
  std::vector<ElementId> dirty;
  for (ElementId e = 0; e < base.num_elements(); ++e) {
    if (base.card(e) != next.card(e) ||
        base_metrics.edge_affinity[e] != next_metrics.edge_affinity[e] ||
        base_metrics.w[e] != next_metrics.w[e]) {
      dirty.push_back(e);
    }
  }
  return dirty;
}

EdgeMetrics EdgeMetrics::Compute(const SchemaGraph& graph,
                                 const Annotations& annotations) {
  const size_t n = graph.size();
  EdgeMetrics m;
  m.rc.resize(n);
  m.w.resize(n);
  m.edge_affinity.resize(n);
  m.mirror.resize(n);
  for (ElementId e = 0; e < n; ++e) {
    const auto& nbrs = graph.neighbors(e);
    auto& rc = m.rc[e];
    auto& w = m.w[e];
    auto& aff = m.edge_affinity[e];
    auto& mir = m.mirror[e];
    rc.resize(nbrs.size());
    w.resize(nbrs.size());
    aff.resize(nbrs.size());
    mir.resize(nbrs.size());
    double total_rc = 0;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      rc[i] = annotations.RelativeCardinality(graph, e, nbrs[i]);
      total_rc += rc[i];
      aff[i] = rc[i] > 0 ? std::min(rc[i], 1.0 / rc[i]) : 0.0;
      // Locate the mirror adjacency record at the other endpoint: the entry
      // with the same link id and class, opposite direction.
      const auto& other_nbrs = graph.neighbors(nbrs[i].other);
      uint32_t found = 0;
      bool ok = false;
      for (size_t j = 0; j < other_nbrs.size(); ++j) {
        if (other_nbrs[j].link == nbrs[i].link &&
            other_nbrs[j].is_structural == nbrs[i].is_structural &&
            other_nbrs[j].forward != nbrs[i].forward) {
          found = static_cast<uint32_t>(j);
          ok = true;
          break;
        }
      }
      SSUM_CHECK(ok, "mirror adjacency entry not found");
      mir[i] = found;
    }
    if (total_rc > 0) {
      for (size_t i = 0; i < nbrs.size(); ++i) w[i] = rc[i] / total_rc;
    } else if (!nbrs.empty()) {
      // Zero-cardinality element: distribute uniformly so the importance
      // iteration still conserves total importance.
      double u = 1.0 / static_cast<double>(nbrs.size());
      std::fill(w.begin(), w.end(), u);
    }
  }
  return m;
}

}  // namespace ssum
