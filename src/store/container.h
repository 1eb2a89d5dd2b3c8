#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.h"
#include "common/result.h"

namespace ssum {

/// Versioned binary snapshot container — the on-disk envelope for every
/// artifact the warm-start store persists (annotations, affinity/coverage
/// matrices, summaries). The layout is deliberately SCR-checkpoint-shaped:
/// a self-describing header, length-prefixed sections each guarded by its
/// own CRC32C, and a trailer checksum over the whole file, so that *any*
/// single corrupted or truncated byte is detected and surfaces as a Status
/// (never a crash, honoring the abort-free ingestion contract):
///
///   header   (24 bytes)
///     [0..8)    magic "SSUMBIN\x1a"
///     [8..12)   u32 LE  format version (kContainerFormatVersion)
///     [12..16)  u32 LE  payload kind (PayloadKind, or foreign values)
///     [16..20)  u32 LE  section count
///     [20..24)  u32 LE  CRC32C of bytes [0..20)
///   sections (section count times)
///     u32 LE  section tag (artifact-defined)
///     u64 LE  payload size in bytes
///     payload
///     u32 LE  CRC32C of the payload
///   trailer  (12 bytes)
///     u64 LE  total container size in bytes (including this trailer)
///     u32 LE  CRC32C of every preceding byte of the container
///
/// Version/compat policy: readers of version N parse exactly version N.
/// A valid header with a different version (or an unknown payload kind) is
/// *not* corruption — PeekContainer succeeds and reports it, and cache
/// lookups treat it as a clean miss so one cache directory can be shared
/// across format generations. Anything failing a checksum or structurally
/// impossible is kDataLoss; anything cut short is kOutOfRange. Both carry
/// the byte offset of the first inconsistency.
inline constexpr uint32_t kContainerFormatVersion = 1;
inline constexpr size_t kContainerMagicSize = 8;
inline constexpr char kContainerMagic[kContainerMagicSize + 1] = "SSUMBIN\x1a";
inline constexpr size_t kContainerHeaderSize = 24;
inline constexpr size_t kContainerTrailerSize = 12;
inline constexpr size_t kContainerSectionOverhead = 4 + 8 + 4;

/// Payload kinds of the current format version. Stored as a raw u32 so
/// foreign (newer) kinds remain representable.
enum class PayloadKind : uint32_t {
  kAnnotations = 1,
  kSquareMatrix = 2,
  kSummary = 3,
  // Wire messages of the serving daemon (src/serve/wire.h). They share the
  // container envelope but never land in the artifact cache, whose
  // known-kind check deliberately excludes them.
  kServeRequest = 4,
  kServeResponse = 5,
  // Annotation delta between two snapshot versions (stats/delta.h), keyed
  // by the child annotations cache key and carrying its parent's key — the
  // lineage links of the incremental summarization store.
  kAnnotationDelta = 6,
};

const char* PayloadKindName(uint32_t kind);

/// Header fields recoverable without parsing the section list; what cache
/// lookups use to classify foreign-version files as clean misses.
struct ContainerInfo {
  uint32_t format_version = 0;
  uint32_t payload_kind = 0;
  uint32_t section_count = 0;
};

/// One decoded section: a view into the container's bytes (valid as long as
/// the parsed byte string outlives the Container).
struct ContainerSection {
  uint32_t tag = 0;
  std::string_view payload;
};

/// A fully verified container: every CRC checked, every length consistent.
struct Container {
  ContainerInfo info;
  std::vector<ContainerSection> sections;

  /// First section with `tag`, or NotFound.
  Result<std::string_view> Section(uint32_t tag) const;
};

/// Validates magic and header CRC only; succeeds for foreign versions.
/// Truncation -> OutOfRange, bad magic / bad header CRC -> DataLoss.
Result<ContainerInfo> PeekContainer(std::string_view bytes);

/// Fully parses and verifies a version-kContainerFormatVersion container.
/// Foreign versions -> FailedPrecondition (callers that tolerate skew call
/// PeekContainer first); corruption -> DataLoss; truncation -> OutOfRange.
/// All errors carry the byte offset of the first inconsistency.
Result<Container> ParseContainer(std::string_view bytes);

/// Builds containers. Sections are appended in order straight into the
/// output buffer; Finish() takes the section CRCs, seals the section count,
/// header CRC and trailer and returns that buffer, so each payload byte is
/// copied at most once.
class ContainerWriter {
 public:
  /// `format_version` is overridable only to fabricate version-skew
  /// fixtures in tests; production callers always write the current one.
  explicit ContainerWriter(uint32_t payload_kind,
                           uint32_t format_version = kContainerFormatVersion);
  explicit ContainerWriter(PayloadKind kind)
      : ContainerWriter(static_cast<uint32_t>(kind)) {}

  void AddSection(uint32_t tag, std::string_view payload);

  /// Appends a section of `size` payload bytes for the caller to fill in
  /// place and returns where they start, so an encoder that knows its size
  /// up front writes straight into the container. The pointer is valid
  /// until the next call on the writer; the bytes must be final by Finish.
  char* ReserveSection(uint32_t tag, size_t size);

  /// Seals and returns the container bytes. The writer is consumed.
  std::string Finish() &&;

 private:
  struct Section {
    size_t offset;  // of the payload in out_
    size_t size;
  };

  // The container being built: the header (count and CRC still zero until
  // Finish) followed by every section appended so far, each with its CRC
  // slot still zero.
  std::string out_;
  std::vector<Section> sections_;
};

/// Writes `bytes` to `path` atomically and durably through `env`: write to
/// "<path>.tmp.<unique>" in the same directory, flush, **fsync**, close,
/// rename over the target, then fsync the parent directory. The fsync
/// before the rename is the durability barrier: a crash at any step leaves
/// either the old file or the complete new file — never a renamed
/// half-write — and at worst a stale .tmp file, which cache maintenance
/// sweeps. A failed step after the tmp file exists unlinks it (best
/// effort).
Status AtomicWriteFile(Env* env, const std::string& path,
                       std::string_view bytes);
/// Convenience over Env::Default().
Status AtomicWriteFile(const std::string& path, std::string_view bytes);

/// Reads a whole file; NotFound when it does not exist, IoError otherwise.
Result<std::string> ReadFileBytes(Env* env, const std::string& path);
Result<std::string> ReadFileBytes(const std::string& path);

}  // namespace ssum
