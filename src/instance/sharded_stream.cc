#include "instance/sharded_stream.h"

#include <string>

namespace ssum {

namespace {

Status ValidateUnitRange(uint64_t begin, uint64_t end, uint64_t num_units) {
  if (begin > end || end > num_units) {
    return Status::InvalidArgument(
        "AcceptUnits: range [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") invalid for " + std::to_string(num_units) +
        " units");
  }
  return Status::OK();
}

}  // namespace

UnitRange ShardUnitRange(uint64_t num_units, uint64_t shard,
                         uint64_t num_shards) {
  if (num_shards == 0) return {0, num_units};
  // Bresenham split: boundary i = floor(i * num_units / num_shards). The
  // 128-bit intermediate keeps the product exact for any realistic unit
  // count (num_units and num_shards both fit in 64 bits).
  auto boundary = [&](uint64_t i) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(num_units) * i) / num_shards);
  };
  return {boundary(shard), boundary(shard + 1)};
}

Status ShardedInstanceSource::AcceptSkeleton(EventSink* sink) const {
  EventWriter out(sink);
  SSUM_RETURN_NOT_OK(EmitSkeleton(&out));
  return out.Finish();
}

Status ShardedInstanceSource::AcceptUnits(uint64_t begin, uint64_t end,
                                          EventSink* sink) const {
  SSUM_RETURN_NOT_OK(ValidateUnitRange(begin, end, NumUnits()));
  EventWriter out(sink);
  SSUM_RETURN_NOT_OK(EmitUnits(begin, end, &out));
  return out.Finish();
}

}  // namespace ssum
