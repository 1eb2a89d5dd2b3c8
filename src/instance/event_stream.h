#pragma once

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "schema/schema_graph.h"

namespace ssum {

/// One event of a depth-first pre-order traversal of a database instance —
/// exactly the traversal annotateSchema (paper Figure 3) performs — packed
/// into 32 bits: the EventTag in the top 2 bits, the element or value-link
/// id in the low 30 (kMaxSchemaId bounds every schema id, so ids always fit).
using Event = uint32_t;

enum class EventTag : uint32_t {
  /// A data node of element `id` is entered. For every node except the
  /// root, the parent data node (whose schema element is
  /// `schema.parent(id)`) is the most recently entered unclosed node.
  kEnter = 0,
  /// The current (most recently entered, unclosed) data node emits one
  /// reference instance along value link `id`, acting as referrer.
  kReference = 1,
  /// A data node of element `id` with no children and no references: an
  /// enter immediately followed by its leave. Every consumer treats it
  /// exactly as that pair (digests hash it as the pair).
  kLeaf = 2,
  /// The current node, of element `id`, is closed.
  kLeave = 3,
};

inline constexpr uint32_t kEventIdBits = 30;
inline constexpr uint32_t kEventIdMask = (uint32_t{1} << kEventIdBits) - 1;
static_assert(kMaxSchemaId <= kEventIdMask,
              "every schema id must fit in an event's id field");

/// Events per block handed to an EventSink (16 KiB of events).
inline constexpr size_t kEventBlockSize = 4096;

constexpr Event MakeEvent(EventTag tag, uint32_t id) {
  return (static_cast<uint32_t>(tag) << kEventIdBits) | id;
}
constexpr EventTag EventTagOf(Event event) {
  return static_cast<EventTag>(event >> kEventIdBits);
}
constexpr uint32_t EventIdOf(Event event) { return event & kEventIdMask; }

/// Consumer of a traversal, fed one block of events at a time. Consumers
/// record their own errors (the first bad event wins) and report them after
/// the traversal; a block never needs a reply.
class EventSink {
 public:
  virtual ~EventSink() = default;

  /// The next `n` events of the traversal, 1 <= n <= kEventBlockSize.
  virtual void Consume(const Event* events, size_t n) = 0;
};

/// The producer side: sources append events through these inline calls and
/// the writer hands each full block to its sink in one virtual call.
///
/// An id that does not fit in the 30-bit field is never truncated into
/// another (possibly valid) id: from the first such id on, the sink receives
/// nothing more (not even the pending partial block), and Finish() reports
/// the id.
class EventWriter {
 public:
  explicit EventWriter(EventSink* sink) : sink_(sink) {}
  EventWriter(const EventWriter&) = delete;
  EventWriter& operator=(const EventWriter&) = delete;

  void Enter(ElementId e) { Put(EventTag::kEnter, e); }
  void Reference(LinkId vlink) { Put(EventTag::kReference, vlink); }
  void Leaf(ElementId e) { Put(EventTag::kLeaf, e); }
  void Leave(ElementId e) { Put(EventTag::kLeave, e); }

  /// Hands the pending partial block to the sink. FailedPrecondition when an
  /// id overflowed the event encoding.
  Status Finish();

 private:
  void Put(EventTag tag, uint32_t id) {
    if (id > kEventIdMask) [[unlikely]] {
      RejectId(tag, id);
      return;
    }
    if (size_ == kEventBlockSize) [[unlikely]] Flush();
    block_[size_++] = MakeEvent(tag, id);
  }
  void Flush();
  void RejectId(EventTag tag, uint32_t id);

  EventSink* sink_;
  size_t size_ = 0;
  Status status_;
  Event block_[kEventBlockSize];
};

/// A database instance traversable in depth-first pre-order. Concrete
/// sources: in-memory DataTree, XML documents, relational tables, and the
/// synthetic dataset generators.
class InstanceStream {
 public:
  virtual ~InstanceStream() = default;

  /// Schema the instance conforms to. Must outlive the stream.
  virtual const SchemaGraph& schema() const = 0;

  /// Runs one full traversal into `sink`. May be called multiple times;
  /// each call replays the same instance (generators re-seed internally).
  Status Accept(EventSink* sink) const;

 protected:
  /// Writes every event of one full traversal.
  virtual Status Emit(EventWriter* out) const = 0;
};

/// Counts nodes and references; useful for dataset statistics and tests.
class CountingSink : public EventSink {
 public:
  void Consume(const Event* events, size_t n) override;

  uint64_t nodes() const { return nodes_; }
  uint64_t references() const { return references_; }

 private:
  uint64_t nodes_ = 0;
  uint64_t references_ = 0;
};

}  // namespace ssum
