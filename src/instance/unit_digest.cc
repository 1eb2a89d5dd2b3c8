#include "instance/unit_digest.h"

#include "common/hash.h"
#include "instance/event_stream.h"

namespace ssum {

namespace {

/// Hashes one unit's event sequence. Event kinds are tagged so an enter of
/// element 3 can never alias a reference along link 3, and ids are hashed
/// fixed-width so adjacent events cannot alias across boundaries. A leaf
/// hashes exactly as its enter + leave pair, so digests persisted before
/// sources emitted leaves stay valid.
class UnitDigestSink : public EventSink {
 public:
  void Consume(const Event* events, size_t n) override {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t id = EventIdOf(events[i]);
      switch (EventTagOf(events[i])) {
        case EventTag::kEnter:
          Hash('E', id);
          break;
        case EventTag::kReference:
          Hash('R', id);
          break;
        case EventTag::kLeaf:
          Hash('E', id);
          Hash('L', id);
          break;
        case EventTag::kLeave:
          Hash('L', id);
          break;
      }
    }
  }

  uint64_t digest() const { return hash_.Digest(); }

 private:
  void Hash(char tag, uint64_t id) {
    hash_.Update(&tag, 1);
    hash_.UpdateU64(id);
  }

  Fnv1a64 hash_;
};

}  // namespace

Result<std::vector<uint64_t>> ComputeUnitDigests(
    const ShardedInstanceSource& source, const UnitDigestOptions& options) {
  SSUM_RETURN_NOT_OK(options.parallel.deadline.Check("unit digests"));
  const uint64_t units = source.NumUnits();
  std::vector<uint64_t> digests(units, 0);
  std::vector<Status> statuses(units, Status::OK());
  SSUM_RETURN_NOT_OK(ParallelFor(
      0, units, 16,
      [&](size_t u) {
        UnitDigestSink sink;
        Status s = source.AcceptUnits(u, u + 1, &sink);
        if (s.ok()) {
          digests[u] = sink.digest();
        } else {
          statuses[u] = std::move(s);
        }
      },
      options.parallel));
  for (const Status& s : statuses) SSUM_RETURN_NOT_OK(s);
  return digests;
}

Result<std::vector<uint64_t>> DiffUnitDigests(
    const std::vector<uint64_t>& base, const std::vector<uint64_t>& next) {
  if (base.size() != next.size()) {
    return Status::FailedPrecondition(
        "unit digests: partition changed (" + std::to_string(base.size()) +
        " vs " + std::to_string(next.size()) +
        " units); per-unit identity does not hold");
  }
  std::vector<uint64_t> dirty;
  for (size_t u = 0; u < base.size(); ++u) {
    if (base[u] != next[u]) dirty.push_back(u);
  }
  return dirty;
}

}  // namespace ssum
