#pragma once

// Differential check of the block annotator (stats/annotate.h) against a
// plain per-event reference, shared by the fuzz_events harness and its
// corpus replay in tests/test_fuzz_regression.cc.
//
// Input bytes decode into one instance traversal over a fixed 10-element
// schema:
//   byte 0       bit 0 clear: annotate as a full traversal (AnnotateSchema);
//                bit 0 set:   annotate as one unit (AnnotateUnits)
//   each byte    tag in bits 7..6 (0 enter, 1 reference, 2 leaf, 3 leave),
//                id in bits 5..0; id 63 escapes to the next 4 bytes, a
//                little-endian 32-bit id (ids past 30 bits reach the writer)
//
// The reference handles one event per call, with the checks in the order the
// block annotator documents, and must agree with it on the Status code and
// message and, when the status is OK, on every counter.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "instance/event_stream.h"
#include "instance/sharded_stream.h"
#include "schema/schema_builder.h"
#include "stats/annotate.h"

namespace ssum::fuzz {

/// db -> auctions -> auction* -> {bidder* -> @person, price}
/// db -> persons -> person* -> {@id, name}
/// bidder --V--> person (link 0), auction --V--> person (link 1)
inline const SchemaGraph& EventFuzzSchema() {
  static const SchemaGraph schema = [] {
    SchemaBuilder b("db");
    ElementId auctions = b.Rcd(b.Root(), "auctions");
    ElementId auction = b.SetRcd(auctions, "auction");
    ElementId bidder = b.SetRcd(auction, "bidder");
    ElementId bidder_person = b.Attr(bidder, "person", AtomicKind::kIdRef);
    b.Simple(auction, "price");
    ElementId persons = b.Rcd(b.Root(), "persons");
    ElementId person = b.SetRcd(persons, "person");
    ElementId person_id = b.Attr(person, "id", AtomicKind::kId);
    b.Simple(person, "name");
    b.Link(bidder, person, bidder_person, person_id);
    b.Link(auction, person);
    return std::move(b).Build();
  }();
  return schema;
}

struct DecodedEvents {
  bool units = false;
  std::vector<std::pair<EventTag, uint32_t>> events;
};

inline DecodedEvents DecodeEvents(const uint8_t* data, size_t size) {
  DecodedEvents out;
  if (size == 0) return out;
  out.units = (data[0] & 1) != 0;
  for (size_t i = 1; i < size; ++i) {
    const EventTag tag = static_cast<EventTag>(data[i] >> 6);
    uint32_t id = data[i] & 0x3f;
    if (id == 0x3f) {
      if (size - i <= 4) break;
      id = static_cast<uint32_t>(data[i + 1]) |
           static_cast<uint32_t>(data[i + 2]) << 8 |
           static_cast<uint32_t>(data[i + 3]) << 16 |
           static_cast<uint32_t>(data[i + 4]) << 24;
      i += 4;
    }
    out.events.emplace_back(tag, id);
  }
  return out;
}

/// The decoded events as a full traversal, or as the single unit of a
/// sharded source whose skeleton is the bare root.
class DecodedSource : public InstanceStream, public ShardedInstanceSource {
 public:
  DecodedSource(const SchemaGraph* schema, const DecodedEvents* decoded)
      : schema_(schema), decoded_(decoded) {}

  const SchemaGraph& schema() const override { return *schema_; }
  uint64_t NumUnits() const override { return 1; }

 private:
  Status Emit(EventWriter* out) const override {
    for (auto [tag, id] : decoded_->events) {
      switch (tag) {
        case EventTag::kEnter:
          out->Enter(id);
          break;
        case EventTag::kReference:
          out->Reference(id);
          break;
        case EventTag::kLeaf:
          out->Leaf(id);
          break;
        case EventTag::kLeave:
          out->Leave(id);
          break;
      }
    }
    return Status::OK();
  }
  Status EmitSkeleton(EventWriter* out) const override {
    out->Leaf(schema_->root());
    return Status::OK();
  }
  Status EmitUnits(uint64_t begin, uint64_t end,
                   EventWriter* out) const override {
    return begin < end ? Emit(out) : Status::OK();
  }

  const SchemaGraph* schema_;
  const DecodedEvents* decoded_;
};

/// Per-event reference annotator: one call per event, vectors indexed
/// through the schema accessors, a growable stack.
class ReferenceAnnotator {
 public:
  ReferenceAnnotator(const SchemaGraph& schema, bool units)
      : schema_(schema), units_(units), annotations_(schema) {}

  void Enter(ElementId e) {
    if (!status_.ok()) return;
    if (e >= schema_.size()) {
      status_ = Status::FailedPrecondition("stream: element id out of range");
      return;
    }
    if (stack_.empty()) {
      if (units_) {
        if (e == schema_.root()) {
          status_ = Status::FailedPrecondition(
              "stream: unit subtree rooted at the schema root");
          return;
        }
        annotations_.increment_structural(schema_.parent_link(e));
      } else if (e != schema_.root()) {
        status_ = Status::FailedPrecondition(
            "stream: first node is not the schema root");
        return;
      }
    } else {
      if (schema_.parent(e) != stack_.back()) {
        status_ = Status::FailedPrecondition(
            "stream: node '" + schema_.label(e) +
            "' entered under node of element '" +
            schema_.label(stack_.back()) + "' but its schema parent is '" +
            (schema_.parent(e) == kInvalidElement
                 ? std::string("<none>")
                 : schema_.label(schema_.parent(e))) +
            "'");
        return;
      }
      annotations_.increment_structural(schema_.parent_link(e));
    }
    annotations_.increment_card(e);
    stack_.push_back(e);
  }

  void Reference(LinkId vlink) {
    if (!status_.ok()) return;
    if (vlink >= schema_.value_links().size()) {
      status_ = Status::FailedPrecondition("stream: vlink id out of range");
      return;
    }
    if (stack_.empty()) {
      status_ = Status::FailedPrecondition("stream: reference outside a node");
      return;
    }
    if (schema_.value_links()[vlink].referrer != stack_.back()) {
      status_ = Status::FailedPrecondition(
          "stream: reference emitted by element '" +
          schema_.label(stack_.back()) + "' but link referrer is '" +
          schema_.label(schema_.value_links()[vlink].referrer) + "'");
      return;
    }
    annotations_.increment_value(vlink);
  }

  void Leave(ElementId e) {
    if (!status_.ok()) return;
    if (stack_.empty() || stack_.back() != e) {
      status_ = Status::FailedPrecondition("stream: unbalanced leave event");
      return;
    }
    stack_.pop_back();
  }

  Result<Annotations> Finish() {
    SSUM_RETURN_NOT_OK(status_);
    if (!stack_.empty()) {
      return Status::FailedPrecondition("stream: unclosed nodes at end");
    }
    return annotations_;
  }

 private:
  const SchemaGraph& schema_;
  bool units_;
  Annotations annotations_;
  std::vector<ElementId> stack_;
  Status status_;
};

inline Result<Annotations> ReferenceAnnotate(const SchemaGraph& schema,
                                             const DecodedEvents& decoded) {
  // A source id past the 30-bit event field fails the whole traversal,
  // whatever the events before it did.
  for (auto [tag, id] : decoded.events) {
    if (id > kEventIdMask) {
      return Status::FailedPrecondition(
          std::string("stream: ") +
          (tag == EventTag::kReference ? "vlink" : "element") + " id " +
          std::to_string(id) + " does not fit in the 30-bit event id field");
    }
  }
  ReferenceAnnotator ref(schema, decoded.units);
  for (auto [tag, id] : decoded.events) {
    switch (tag) {
      case EventTag::kEnter:
        ref.Enter(id);
        break;
      case EventTag::kReference:
        ref.Reference(id);
        break;
      case EventTag::kLeaf:
        ref.Enter(id);
        ref.Leave(id);
        break;
      case EventTag::kLeave:
        ref.Leave(id);
        break;
    }
  }
  return ref.Finish();
}

struct EventCheck {
  Status status;           ///< the block annotator's status
  std::string mismatch;    ///< empty when it agrees with the reference
};

/// Annotates the decoded input with the block annotator and the reference
/// and reports the first disagreement.
inline EventCheck CheckEvents(const uint8_t* data, size_t size) {
  const SchemaGraph& schema = EventFuzzSchema();
  const DecodedEvents decoded = DecodeEvents(data, size);
  DecodedSource source(&schema, &decoded);
  Result<Annotations> got = decoded.units ? AnnotateUnits(source, 0, 1)
                                          : AnnotateSchema(source);
  Result<Annotations> want = ReferenceAnnotate(schema, decoded);
  EventCheck check;
  check.status = got.status();
  if (got.status().code() != want.status().code() ||
      got.status().message() != want.status().message()) {
    check.mismatch = "status " + got.status().ToString() +
                     " but the reference gives " + want.status().ToString();
  } else if (got.ok() && !(*got == *want)) {
    check.mismatch = "counters differ from the reference";
  }
  return check;
}

}  // namespace ssum::fuzz
