#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/hash.h"
#include "common/result.h"
#include "core/affinity.h"
#include "core/coverage.h"
#include "instance/event_stream.h"
#include "schema/schema_graph.h"
#include "stats/annotate.h"

namespace ssum {

/// Content fingerprint — the cache-key currency of the artifact store.
/// 64-bit FNV-1a over a canonical byte rendering of the fingerprinted
/// object. Equal fingerprints are presumed equal content (the store is a
/// cache: a collision re-serves a stale artifact for the colliding key, it
/// never corrupts data — and decoders still shape-check against the
/// caller's schema).
struct Fingerprint {
  uint64_t value = 0;

  std::string ToHex() const;
  bool operator==(const Fingerprint&) const = default;
};

/// Order-dependent combination of fingerprint parts.
Fingerprint MixFingerprints(Fingerprint a, Fingerprint b);

/// Fingerprint of raw bytes (file contents, serialized forms).
Fingerprint FingerprintBytes(std::string_view bytes);

/// Fingerprint of a file's contents, streamed in chunks (no whole-file
/// buffering). NotFound / IoError on unreadable paths.
Result<Fingerprint> FingerprintFile(const std::string& path);

/// Fingerprint of a schema graph: hashes the canonical text serialization
/// (schema_io.h), so graphs that serialize identically key identically.
Fingerprint FingerprintSchema(const SchemaGraph& graph);

/// Fingerprint of database statistics (the annotation arrays).
Fingerprint FingerprintAnnotations(const Annotations& annotations);

/// Fingerprint of the SummarizeOptions fields the matrix artifacts depend
/// on. Fields that only steer selection (importance options, enumeration
/// budget, thread counts) are deliberately excluded: they do not change the
/// matrices, and results are bit-identical across thread counts.
Fingerprint FingerprintMatrixOptions(const AffinityOptions& affinity,
                                     const CoverageOptions& coverage);

/// Streaming digest of an instance stream: one full traversal hashing every
/// enter/reference/leave event (a leaf event hashes as its enter + leave
/// pair, so the digest does not depend on which form a source emits). This
/// is the content-addressed identity of a
/// database instance when no cheaper identity (file bytes, generator
/// parameters) exists. Note the cost — one traversal, the same order of
/// work as AnnotateSchema itself — which is why the dataset registry keys
/// synthetic instances by generator identity instead (see
/// datasets/registry.h).
class DigestSink : public EventSink {
 public:
  void Consume(const Event* events, size_t n) override;

  Fingerprint digest() const;

 private:
  Fnv1a64 hash_;
};

Result<Fingerprint> DigestInstanceStream(const InstanceStream& stream);

}  // namespace ssum
