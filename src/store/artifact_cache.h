#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/env.h"
#include "common/result.h"
#include "common/retry.h"
#include "core/path_engine.h"
#include "core/summary.h"
#include "schema/schema_graph.h"
#include "stats/annotate.h"
#include "stats/delta.h"
#include "store/fingerprint.h"

namespace ssum {

/// Lookup/install counters. `misses` counts every failed lookup;
/// `corrupt` / `foreign` / `mismatch` break down *why* beyond plain
/// absence (corrupt = checksum/structure failure, foreign = other format
/// version or unknown payload kind — a clean miss by policy, mismatch =
/// decoded fine but shaped for a different schema). `quarantined` counts
/// corrupt containers moved aside to `.quarantine/`; `healed` counts
/// reinstalls over a previously quarantined key (the recover half of
/// quarantine-and-heal, docs/robustness.md).
struct CacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t installs = 0;
  uint64_t corrupt = 0;
  uint64_t foreign = 0;
  uint64_t mismatch = 0;
  uint64_t quarantined = 0;
  uint64_t healed = 0;

  CacheCounters& operator+=(const CacheCounters& other);
};

/// One cache file, as listed by `ssum cache ls`.
struct CacheEntry {
  std::string file;       ///< file name within the cache directory
  uint64_t bytes = 0;
  uint32_t format_version = 0;
  uint32_t payload_kind = 0;
  bool readable = false;  ///< header parsed (full verification is Verify())
};

/// Content-addressed warm-start store for the expensive pipeline artifacts.
/// Files are binary snapshot containers (container.h) named
/// "<family>-<fingerprint>.ssb"; the fingerprint is computed by the caller
/// from everything the artifact depends on (schema, statistics, options —
/// see fingerprint.h), so a changed input simply keys a different file.
///
/// Failure policy: a cache can only ever cost a recompute, never an error
/// or a crash. Every load failure — absent file, corrupt or truncated
/// container, foreign format version, shape mismatch — classifies, logs
/// once per file, and reports a miss; the caller recomputes and the next
/// install overwrites the bad file atomically. Store failures are returned
/// (callers typically log and continue).
///
/// Thread safety: safe for concurrent lookups/installs of distinct
/// artifacts (the summarizer context loads the two matrices from worker
/// threads); counters are internally synchronized.
class ArtifactCache {
 public:
  /// Artifact family names (file-name prefixes).
  static constexpr const char* kAnnotationsFamily = "annotations";
  static constexpr const char* kAffinityFamily = "affinity";
  static constexpr const char* kCoverageFamily = "coverage";
  static constexpr const char* kSummaryFamily = "summary";
  /// Lineage links: "delta-<child key>.ssb" rebuilds the child annotations
  /// from the parent artifact named inside the container.
  static constexpr const char* kDeltaFamily = "delta";

  /// Longest parent chain LoadAnnotationsLineage will chase. Past this the
  /// lookup is a clean miss — rebuilding through arbitrarily long chains
  /// costs more than recomputing, and a key cycle must terminate.
  static constexpr uint32_t kMaxLineageDepth = 8;

  explicit ArtifactCache(std::string dir);

  /// All IO goes through `env` (not owned; outlives the cache) and
  /// transient IoError failures are retried per `retry`. The default
  /// constructor uses Env::Default() and the default RetryPolicy; tests and
  /// the crash-consistency sweeps pass a FaultInjectingEnv.
  ArtifactCache(std::string dir, Env* env, RetryPolicy retry = {});

  const std::string& dir() const { return dir_; }
  Env* env() const { return env_; }

  /// Creates the cache directory (and parents) if absent.
  Status EnsureDir() const;

  std::optional<Annotations> LoadAnnotations(const SchemaGraph& graph,
                                             const Fingerprint& key);
  Status StoreAnnotations(const Fingerprint& key,
                          const Annotations& annotations);

  /// `family` distinguishes the affinity and coverage caches; both hold
  /// PayloadKind::kSquareMatrix containers.
  std::optional<SquareMatrix> LoadMatrix(const char* family,
                                         const Fingerprint& key,
                                         size_t expected_n);
  Status StoreMatrix(const char* family, const Fingerprint& key,
                     const SquareMatrix& matrix);

  std::optional<SchemaSummary> LoadSummary(const SchemaGraph& graph,
                                           const Fingerprint& key);
  Status StoreSummary(const Fingerprint& key, const SchemaSummary& summary);

  /// Installs the lineage link for the child annotations artifact keyed
  /// `child_key`: the delta that rebuilds it from the parent annotations
  /// artifact keyed `parent_key` (see stats/delta.h for the delta itself).
  Status StoreAnnotationsDelta(const Fingerprint& child_key,
                               const Fingerprint& parent_key,
                               const AnnotationDelta& delta);

  /// Annotations resolved through the lineage chain. `delta_hops` is how
  /// many deltas were applied on top of the nearest directly-present
  /// ancestor (0 = plain direct hit).
  struct LineageHit {
    Annotations annotations;
    uint32_t delta_hops = 0;
  };

  /// Lineage-aware annotations lookup: a direct hit on `key` wins; else
  /// the delta chain is chased parent-by-parent (up to `max_depth` hops)
  /// until a directly-present ancestor is found, and the deltas are
  /// replayed child-ward on top of it. Every delta application verifies
  /// the recorded parent and child content fingerprints, so a wrong or
  /// stale parent is a clean miss (mismatch) and mangled delta bytes are
  /// corruption (quarantined) — the result is never silently wrong, and
  /// any failure degrades to the cold recompute path exactly like a plain
  /// miss.
  std::optional<LineageHit> LoadAnnotationsLineage(
      const SchemaGraph& graph, const Fingerprint& key,
      uint32_t max_depth = kMaxLineageDepth);

  /// One delta container, as listed by `ssum cache lineage`. Key fields
  /// are hex renderings (the file-name currency of the cache).
  struct LineageEntry {
    std::string file;
    std::string child_key_hex;
    std::string parent_key_hex;
    uint64_t dirty_units = 0;
    uint64_t total_units = 0;
    /// Parent resolvable on disk — a full annotations snapshot or a further
    /// delta link continuing the chain.
    bool parent_present = false;
    bool readable = false;  ///< lineage section decoded
  };

  /// All delta containers in the directory, lineage-peeked (no schema
  /// needed; the diff arrays are not decoded).
  Result<std::vector<LineageEntry>> ListLineage() const;

  /// Counters accumulated by this instance since construction.
  CacheCounters session_counters() const;

  /// Merges the session counters into the persistent counter file
  /// ("cache-counters.v1.txt", atomic replace) and zeroes the session
  /// counters. The CLI flushes once per command, which is what makes
  /// `ssum cache stat` able to prove a later invocation recomputed nothing.
  Status FlushCounters();

  /// Lifetime counters from the persistent counter file (zeros when none).
  Result<CacheCounters> ReadPersistentCounters() const;

  /// All container files in the directory, header-peeked: reads only the
  /// kContainerHeaderSize-byte header of each file.
  Result<std::vector<CacheEntry>> List() const;

  struct VerifyReport {
    uint64_t ok = 0;
    uint64_t corrupt = 0;
    uint64_t foreign = 0;  ///< other format versions / unknown kinds: skipped
    uint64_t quarantined = 0;  ///< corrupt files moved to .quarantine/
    std::vector<std::string> corrupt_files;
  };

  /// Fully re-verifies every container (all checksums). Foreign-version
  /// files are skipped, not failed — a shared cache directory may legally
  /// hold containers written by other format generations. With
  /// `quarantine_corrupt`, every corrupt container is moved to
  /// `.quarantine/` so the next lookup is a clean miss (what `ssum cache
  /// verify` does).
  Result<VerifyReport> Verify(bool quarantine_corrupt = false);

  /// Removes every cache file (containers, counters, stray temp files,
  /// quarantined containers). Returns the number of files removed.
  Result<uint64_t> Clear();

 private:
  std::string PathFor(const char* family, const Fingerprint& key) const;
  /// Reads a container file and checks its header, classifying failures
  /// into the counters. Returns the bytes only when the header names the
  /// current format version and `kind`. The full parse (every CRC) is left
  /// to the caller's Decode*, whose failure the caller counts through
  /// CountMiss, so each byte is checksummed by one parse, not two.
  std::optional<std::string> LoadVerified(const char* family,
                                          const Fingerprint& key,
                                          uint32_t kind);
  Status StoreBytes(const char* family, const Fingerprint& key,
                    std::string_view bytes);
  void CountMiss(const std::string& path, const Status& why, bool foreign);
  void LogOnce(const std::string& path, const std::string& message);
  /// Container files in the directory, sorted by name, with their sizes;
  /// reads no file (List() adds the header peek).
  Result<std::vector<CacheEntry>> ScanContainers() const;
  /// Reads a file through env_, retrying transient IoErrors per retry_.
  Result<std::string> ReadWithRetry(const std::string& path) const;
  /// Best-effort advisory writer lock on the cache directory (".lock").
  /// nullptr when acquisition failed — logged once, and the caller
  /// proceeds unlocked: installs are atomic regardless, the lock only
  /// serializes concurrent writers' counter merges.
  std::unique_ptr<FileLock> AcquireWriterLock();
  /// Moves a corrupt container into `.quarantine/` (best effort) and
  /// remembers the path so its reinstall counts as a heal. True when the
  /// file was actually moved.
  bool Quarantine(const std::string& path);

  std::string dir_;
  Env* env_;
  RetryPolicy retry_;
  mutable std::mutex mutex_;
  CacheCounters counters_;
  std::unordered_set<std::string> logged_;
  /// Paths quarantined by this instance, pending a healing reinstall.
  std::unordered_set<std::string> quarantine_pending_;
};

}  // namespace ssum
