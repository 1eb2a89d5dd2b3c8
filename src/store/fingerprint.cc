#include "store/fingerprint.h"

#include <fstream>

#include "schema/schema_io.h"

namespace ssum {
namespace {

// Event tags for the stream digest; distinct from any id byte stream
// because each event hashes tag + fixed-width id.
constexpr uint64_t kEnterTag = 0x45;      // 'E'
constexpr uint64_t kReferenceTag = 0x52;  // 'R'
constexpr uint64_t kLeaveTag = 0x4c;      // 'L'

}  // namespace

std::string Fingerprint::ToHex() const { return HashToHex(value); }

Fingerprint MixFingerprints(Fingerprint a, Fingerprint b) {
  return Fingerprint{HashCombine(a.value, b.value)};
}

Fingerprint FingerprintBytes(std::string_view bytes) {
  return Fingerprint{HashBytes(bytes)};
}

Result<Fingerprint> FingerprintFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  Fnv1a64 hash;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    hash.Update(buf, static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) return Status::IoError("read failed for '" + path + "'");
  return Fingerprint{hash.Digest()};
}

Fingerprint FingerprintSchema(const SchemaGraph& graph) {
  Fnv1a64 hash;
  hash.Update("ssum-schema-fp:");
  hash.Update(SerializeSchema(graph));
  return Fingerprint{hash.Digest()};
}

Fingerprint FingerprintAnnotations(const Annotations& annotations) {
  Fnv1a64 hash;
  hash.Update("ssum-annotations-fp:");
  hash.UpdateU64(annotations.num_elements());
  for (size_t e = 0; e < annotations.num_elements(); ++e) {
    hash.UpdateU64(annotations.card(static_cast<ElementId>(e)));
  }
  hash.UpdateU64(annotations.num_structural_links());
  for (size_t l = 0; l < annotations.num_structural_links(); ++l) {
    hash.UpdateU64(annotations.structural_count(static_cast<LinkId>(l)));
  }
  hash.UpdateU64(annotations.num_value_links());
  for (size_t l = 0; l < annotations.num_value_links(); ++l) {
    hash.UpdateU64(annotations.value_count(static_cast<LinkId>(l)));
  }
  return Fingerprint{hash.Digest()};
}

Fingerprint FingerprintMatrixOptions(const AffinityOptions& affinity,
                                     const CoverageOptions& coverage) {
  Fnv1a64 hash;
  hash.Update("ssum-matrix-options-fp:");
  hash.UpdateU64(affinity.max_steps);
  hash.UpdateU64(coverage.max_steps);
  return Fingerprint{hash.Digest()};
}

void DigestSink::Consume(const Event* events, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t id = EventIdOf(events[i]);
    switch (EventTagOf(events[i])) {
      case EventTag::kEnter:
        hash_.UpdateU64(kEnterTag);
        hash_.UpdateU64(id);
        break;
      case EventTag::kReference:
        hash_.UpdateU64(kReferenceTag);
        hash_.UpdateU64(id);
        break;
      case EventTag::kLeaf:
        hash_.UpdateU64(kEnterTag);
        hash_.UpdateU64(id);
        hash_.UpdateU64(kLeaveTag);
        hash_.UpdateU64(id);
        break;
      case EventTag::kLeave:
        hash_.UpdateU64(kLeaveTag);
        hash_.UpdateU64(id);
        break;
    }
  }
}

Fingerprint DigestSink::digest() const { return Fingerprint{hash_.Digest()}; }

Result<Fingerprint> DigestInstanceStream(const InstanceStream& stream) {
  DigestSink digest;
  SSUM_RETURN_NOT_OK(stream.Accept(&digest));
  return digest.digest();
}

}  // namespace ssum
