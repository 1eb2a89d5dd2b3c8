#include "instance/event_stream.h"

#include <string>

namespace ssum {

namespace {

/// Where a writer's events go after it rejected an id: nowhere.
class DiscardSink final : public EventSink {
 public:
  void Consume(const Event*, size_t) override {}
};

DiscardSink discard_sink;

}  // namespace

void EventWriter::Flush() {
  sink_->Consume(block_, size_);
  size_ = 0;
}

void EventWriter::RejectId(EventTag tag, uint32_t id) {
  if (!status_.ok()) return;
  status_ = Status::FailedPrecondition(
      std::string("stream: ") +
      (tag == EventTag::kReference ? "vlink" : "element") + " id " +
      std::to_string(id) + " does not fit in the 30-bit event id field");
  // The sink sees none of the rejected traversal's remaining events, so no
  // later event can be read relative to a missing one.
  size_ = 0;
  sink_ = &discard_sink;
}

Status EventWriter::Finish() {
  if (size_ > 0) Flush();
  return status_;
}

Status InstanceStream::Accept(EventSink* sink) const {
  EventWriter out(sink);
  SSUM_RETURN_NOT_OK(Emit(&out));
  return out.Finish();
}

void CountingSink::Consume(const Event* events, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    switch (EventTagOf(events[i])) {
      case EventTag::kEnter:
      case EventTag::kLeaf:
        ++nodes_;
        break;
      case EventTag::kReference:
        ++references_;
        break;
      case EventTag::kLeave:
        break;
    }
  }
}

}  // namespace ssum
