#include "store/artifact_cache.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "common/logging.h"
#include "common/string_util.h"
#include "store/codec.h"
#include "store/container.h"

namespace ssum {
namespace {

namespace fs = std::filesystem;

constexpr const char* kCountersFile = "cache-counters.v1.txt";
constexpr const char* kCountersHeader = "ssum-cache-counters v1";
constexpr const char* kContainerSuffix = ".ssb";
constexpr const char* kLockFile = ".lock";

std::string RenderCounters(const CacheCounters& c) {
  std::string out(kCountersHeader);
  out += "\nhits\t" + std::to_string(c.hits);
  out += "\nmisses\t" + std::to_string(c.misses);
  out += "\ninstalls\t" + std::to_string(c.installs);
  out += "\ncorrupt\t" + std::to_string(c.corrupt);
  out += "\nforeign\t" + std::to_string(c.foreign);
  out += "\nmismatch\t" + std::to_string(c.mismatch);
  out += "\nquarantined\t" + std::to_string(c.quarantined);
  out += "\nhealed\t" + std::to_string(c.healed);
  out += "\n";
  return out;
}

/// Parses a counter file leniently: unknown lines are ignored, missing
/// counters stay zero. A corrupt counter file must never break the cache —
/// the worst case is a statistics reset.
CacheCounters ParseCounters(const std::string& text) {
  CacheCounters c;
  for (const std::string& line : SplitString(text, '\n')) {
    const std::vector<std::string> fields = SplitString(line, '\t');
    if (fields.size() != 2) continue;
    auto value = ParseInt64(fields[1]);
    if (!value.ok() || *value < 0) continue;
    const uint64_t v = static_cast<uint64_t>(*value);
    if (fields[0] == "hits") c.hits = v;
    else if (fields[0] == "misses") c.misses = v;
    else if (fields[0] == "installs") c.installs = v;
    else if (fields[0] == "corrupt") c.corrupt = v;
    else if (fields[0] == "foreign") c.foreign = v;
    else if (fields[0] == "mismatch") c.mismatch = v;
    else if (fields[0] == "quarantined") c.quarantined = v;
    else if (fields[0] == "healed") c.healed = v;
  }
  return c;
}

bool IsContainerFile(const fs::path& p) {
  return p.extension() == kContainerSuffix;
}

}  // namespace

CacheCounters& CacheCounters::operator+=(const CacheCounters& other) {
  hits += other.hits;
  misses += other.misses;
  installs += other.installs;
  corrupt += other.corrupt;
  foreign += other.foreign;
  mismatch += other.mismatch;
  quarantined += other.quarantined;
  healed += other.healed;
  return *this;
}

ArtifactCache::ArtifactCache(std::string dir)
    : ArtifactCache(std::move(dir), Env::Default()) {}

ArtifactCache::ArtifactCache(std::string dir, Env* env, RetryPolicy retry)
    : dir_(std::move(dir)), env_(env), retry_(std::move(retry)) {}

Status ArtifactCache::EnsureDir() const { return env_->CreateDirs(dir_); }

std::string ArtifactCache::PathFor(const char* family,
                                   const Fingerprint& key) const {
  return dir_ + "/" + family + "-" + key.ToHex() + kContainerSuffix;
}

void ArtifactCache::LogOnce(const std::string& path,
                            const std::string& message) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!logged_.insert(path).second) return;
  }
  SSUM_LOG(kWarning) << "cache: " << message;
}

void ArtifactCache::CountMiss(const std::string& path, const Status& why,
                              bool foreign) {
  bool corrupt = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.misses;
    if (foreign) {
      ++counters_.foreign;
    } else if (why.IsDataLoss() || why.IsOutOfRange()) {
      ++counters_.corrupt;
      corrupt = true;
    } else if (why.IsFailedPrecondition()) {
      ++counters_.mismatch;
    }
  }
  if (foreign) {
    LogOnce(path, "'" + path + "' has a foreign format version or payload "
                  "kind; treating as a miss");
  } else if (!why.IsNotFound()) {  // plain absence is not worth a log line
    LogOnce(path,
            "'" + path + "' failed verification (" + why.ToString() +
                "); treating as a miss, the artifact will be recomputed");
  }
  // Quarantine-and-heal: move the provably bad bytes aside so they cannot
  // fail another lookup, and let the caller's recompute reinstall over the
  // key. Wrong bytes (DataLoss/OutOfRange) are quarantined; absent files,
  // version skew, and shape mismatches are not — those bytes are fine.
  if (corrupt) Quarantine(path);
}

bool ArtifactCache::Quarantine(const std::string& path) {
  const std::string qdir = dir_ + "/.quarantine";
  if (!env_->CreateDirs(qdir).ok()) return false;
  const size_t slash = path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  if (!env_->RenameFile(path, qdir + "/" + name).ok()) return false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.quarantined;
    quarantine_pending_.insert(path);
  }
  LogOnce(path + "#quarantined",
          "'" + path + "' quarantined to " + qdir +
              "/; the next install of the key heals it");
  return true;
}

Result<std::string> ArtifactCache::ReadWithRetry(
    const std::string& path) const {
  std::string out;
  SSUM_RETURN_NOT_OK(RunWithRetry(retry_, "cache read", [&]() -> Status {
    auto bytes = env_->ReadFile(path);
    if (!bytes.ok()) return bytes.status();
    out = std::move(*bytes);
    return Status::OK();
  }));
  return out;
}

std::optional<std::string> ArtifactCache::LoadVerified(const char* family,
                                                       const Fingerprint& key,
                                                       uint32_t kind) {
  const std::string path = PathFor(family, key);
  auto bytes = ReadWithRetry(path);
  if (!bytes.ok()) {
    CountMiss(path, bytes.status(), /*foreign=*/false);
    return std::nullopt;
  }
  // Header peek first: foreign versions and kinds are clean misses by
  // policy, distinguishable from corruption only before the full parse.
  auto info = PeekContainer(*bytes);
  if (!info.ok()) {
    CountMiss(path, info.status(), /*foreign=*/false);
    return std::nullopt;
  }
  // Serve wire kinds (4/5) share the envelope but never belong in the
  // cache, so they stay foreign even though this reader knows their names.
  const bool known_kind =
      (info->payload_kind >= 1 &&
       info->payload_kind <= static_cast<uint32_t>(PayloadKind::kSummary)) ||
      info->payload_kind ==
          static_cast<uint32_t>(PayloadKind::kAnnotationDelta);
  if (info->format_version != kContainerFormatVersion || !known_kind) {
    CountMiss(path, Status::OK(), /*foreign=*/true);
    return std::nullopt;
  }
  if (info->payload_kind != kind) {
    // A different *known* kind under this family/fingerprint is a mangled
    // install, not version skew.
    CountMiss(path,
              Status::DataLoss("payload kind does not match the family"),
              /*foreign=*/false);
    return std::nullopt;
  }
  return std::move(*bytes);
}

std::unique_ptr<FileLock> ArtifactCache::AcquireWriterLock() {
  auto lock = env_->LockFile(dir_ + "/" + kLockFile);
  if (!lock.ok()) {
    LogOnce(dir_ + "#lock",
            "cannot take the writer lock on '" + dir_ + "' (" +
                lock.status().ToString() +
                "); proceeding unlocked — installs stay atomic, only "
                "concurrent counter merges may race");
    return nullptr;
  }
  return std::move(*lock);
}

Status ArtifactCache::StoreBytes(const char* family, const Fingerprint& key,
                                 std::string_view bytes) {
  SSUM_RETURN_NOT_OK(EnsureDir());
  // Advisory discipline for concurrent writers of the same directory.
  // Best-effort on purpose: a lock failure must never fail an install.
  std::unique_ptr<FileLock> writer_lock = AcquireWriterLock();
  const std::string path = PathFor(family, key);
  // Each retry attempt re-runs the whole atomic install (fresh tmp file);
  // a failed attempt already cleaned its staging file up best-effort.
  SSUM_RETURN_NOT_OK(RunWithRetry(retry_, "cache install", [&]() -> Status {
    return AtomicWriteFile(env_, path, bytes);
  }));
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.installs;
  if (quarantine_pending_.erase(path) > 0) ++counters_.healed;
  return Status::OK();
}

std::optional<Annotations> ArtifactCache::LoadAnnotations(
    const SchemaGraph& graph, const Fingerprint& key) {
  auto bytes = LoadVerified(
      kAnnotationsFamily, key,
      static_cast<uint32_t>(PayloadKind::kAnnotations));
  if (!bytes.has_value()) return std::nullopt;
  auto decoded = DecodeAnnotations(graph, *bytes);
  if (!decoded.ok()) {
    CountMiss(PathFor(kAnnotationsFamily, key), decoded.status(),
              /*foreign=*/false);
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.hits;
  return std::move(*decoded);
}

Status ArtifactCache::StoreAnnotations(const Fingerprint& key,
                                       const Annotations& annotations) {
  return StoreBytes(kAnnotationsFamily, key, EncodeAnnotations(annotations));
}

std::optional<SquareMatrix> ArtifactCache::LoadMatrix(const char* family,
                                                      const Fingerprint& key,
                                                      size_t expected_n) {
  auto bytes = LoadVerified(
      family, key, static_cast<uint32_t>(PayloadKind::kSquareMatrix));
  if (!bytes.has_value()) return std::nullopt;
  auto decoded = DecodeSquareMatrix(*bytes, expected_n);
  if (!decoded.ok()) {
    CountMiss(PathFor(family, key), decoded.status(), /*foreign=*/false);
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.hits;
  return std::move(*decoded);
}

Status ArtifactCache::StoreMatrix(const char* family, const Fingerprint& key,
                                  const SquareMatrix& matrix) {
  return StoreBytes(family, key, EncodeSquareMatrix(matrix));
}

std::optional<SchemaSummary> ArtifactCache::LoadSummary(
    const SchemaGraph& graph, const Fingerprint& key) {
  auto bytes = LoadVerified(kSummaryFamily, key,
                            static_cast<uint32_t>(PayloadKind::kSummary));
  if (!bytes.has_value()) return std::nullopt;
  auto decoded = DecodeSummary(graph, *bytes);
  if (!decoded.ok()) {
    CountMiss(PathFor(kSummaryFamily, key), decoded.status(),
              /*foreign=*/false);
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.hits;
  return std::move(*decoded);
}

Status ArtifactCache::StoreSummary(const Fingerprint& key,
                                   const SchemaSummary& summary) {
  return StoreBytes(kSummaryFamily, key, EncodeSummary(summary));
}

Status ArtifactCache::StoreAnnotationsDelta(const Fingerprint& child_key,
                                            const Fingerprint& parent_key,
                                            const AnnotationDelta& delta) {
  return StoreBytes(kDeltaFamily, child_key,
                    EncodeAnnotationDelta(parent_key, delta));
}

std::optional<ArtifactCache::LineageHit> ArtifactCache::LoadAnnotationsLineage(
    const SchemaGraph& graph, const Fingerprint& key, uint32_t max_depth) {
  auto direct = LoadAnnotations(graph, key);
  if (direct.has_value()) {
    return LineageHit{std::move(*direct), /*delta_hops=*/0};
  }
  // Chase the delta chain parent-ward until an ancestor is directly
  // present. Each link remembers the key it was loaded under so a failing
  // application can point at (and quarantine) the right file.
  struct Link {
    Fingerprint child_key;
    DecodedAnnotationDelta decoded;
  };
  std::vector<Link> chain;
  Fingerprint cur = key;
  std::optional<Annotations> ancestor;
  for (uint32_t depth = 0; depth < max_depth && !ancestor.has_value();
       ++depth) {
    auto bytes =
        LoadVerified(kDeltaFamily, cur,
                     static_cast<uint32_t>(PayloadKind::kAnnotationDelta));
    if (!bytes.has_value()) return std::nullopt;  // miss already counted
    auto decoded = DecodeAnnotationDelta(graph, *bytes);
    if (!decoded.ok()) {
      CountMiss(PathFor(kDeltaFamily, cur), decoded.status(),
                /*foreign=*/false);
      return std::nullopt;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.hits;  // the delta artifact itself
    }
    const Fingerprint parent = decoded->parent_key;
    chain.push_back(Link{cur, std::move(*decoded)});
    cur = parent;
    ancestor = LoadAnnotations(graph, cur);
  }
  if (!ancestor.has_value()) {
    // Depth cap reached with the chain still dangling: a clean miss by
    // policy (also what breaks key cycles).
    LogOnce(PathFor(kDeltaFamily, key) + "#depth",
            "lineage of '" + PathFor(kDeltaFamily, key) + "' exceeds " +
                std::to_string(max_depth) +
                " hops without a present ancestor; treating as a miss");
    return std::nullopt;
  }
  // Replay the deltas child-ward. ApplyAnnotationDelta verifies the parent
  // fingerprint before touching anything and the child fingerprint after,
  // so a failure here can only yield "no result", never a wrong one.
  Annotations annotations = std::move(*ancestor);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    auto child = ApplyAnnotationDelta(graph, annotations, it->decoded.delta);
    if (!child.ok()) {
      // FailedPrecondition = stale/foreign parent (mismatch, bytes are
      // fine); DataLoss = the delta lies about itself (quarantined).
      CountMiss(PathFor(kDeltaFamily, it->child_key), child.status(),
                /*foreign=*/false);
      return std::nullopt;
    }
    annotations = std::move(*child);
  }
  return LineageHit{std::move(annotations),
                    static_cast<uint32_t>(chain.size())};
}

Result<std::vector<ArtifactCache::LineageEntry>> ArtifactCache::ListLineage()
    const {
  std::vector<LineageEntry> out;
  std::vector<CacheEntry> entries;
  SSUM_ASSIGN_OR_RETURN(entries, ScanContainers());
  const std::string prefix = std::string(kDeltaFamily) + "-";
  const size_t suffix_len = std::string(kContainerSuffix).size();
  for (const CacheEntry& entry : entries) {
    if (entry.file.rfind(prefix, 0) != 0) continue;
    LineageEntry le;
    le.file = entry.file;
    le.child_key_hex = entry.file.substr(
        prefix.size(), entry.file.size() - prefix.size() - suffix_len);
    auto bytes = ReadFileBytes(env_, dir_ + "/" + entry.file);
    if (bytes.ok()) {
      auto peek = PeekAnnotationDelta(*bytes);
      if (peek.ok()) {
        le.readable = true;
        le.parent_key_hex = peek->parent_key.ToHex();
        le.dirty_units = peek->delta.dirty_units;
        le.total_units = peek->delta.total_units;
        // The parent is resolvable either as a full annotations snapshot or
        // as another delta link (the chain continues parent-ward).
        auto full = env_->FileExists(dir_ + "/" + kAnnotationsFamily + "-" +
                                     le.parent_key_hex + kContainerSuffix);
        auto link = env_->FileExists(dir_ + "/" + prefix +
                                     le.parent_key_hex + kContainerSuffix);
        le.parent_present =
            (full.ok() && *full) || (link.ok() && *link);
      }
    }
    out.push_back(std::move(le));
  }
  return out;
}

CacheCounters ArtifactCache::session_counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

Status ArtifactCache::FlushCounters() {
  CacheCounters session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    session = counters_;
  }
  if (session.hits == 0 && session.misses == 0 && session.installs == 0 &&
      session.quarantined == 0 && session.healed == 0) {
    return Status::OK();
  }
  SSUM_RETURN_NOT_OK(EnsureDir());
  // The lock makes the read-merge-write below atomic across processes;
  // without it a concurrent flush could lose one side's increments (never
  // anything worse — the write itself is still atomic).
  std::unique_ptr<FileLock> writer_lock = AcquireWriterLock();
  CacheCounters total;
  auto persisted = ReadPersistentCounters();
  if (persisted.ok()) total = *persisted;
  total += session;
  SSUM_RETURN_NOT_OK(AtomicWriteFile(env_, dir_ + "/" + kCountersFile,
                                     RenderCounters(total)));
  std::lock_guard<std::mutex> lock(mutex_);
  counters_ = CacheCounters{};
  return Status::OK();
}

Result<CacheCounters> ArtifactCache::ReadPersistentCounters() const {
  auto bytes = ReadWithRetry(dir_ + "/" + kCountersFile);
  if (!bytes.ok()) {
    if (bytes.status().IsNotFound()) return CacheCounters{};
    return bytes.status();
  }
  return ParseCounters(*bytes);
}

Result<std::vector<CacheEntry>> ArtifactCache::List() const {
  std::vector<CacheEntry> entries;
  SSUM_ASSIGN_OR_RETURN(entries, ScanContainers());
  for (CacheEntry& entry : entries) {
    auto header =
        env_->ReadFilePrefix(dir_ + "/" + entry.file, kContainerHeaderSize);
    if (!header.ok()) continue;
    auto info = PeekContainer(*header);
    if (info.ok()) {
      entry.readable = true;
      entry.format_version = info->format_version;
      entry.payload_kind = info->payload_kind;
    }
  }
  return entries;
}

Result<std::vector<CacheEntry>> ArtifactCache::ScanContainers() const {
  std::vector<CacheEntry> entries;
  std::error_code ec;
  if (!fs::exists(dir_, ec)) return entries;
  for (const auto& dirent : fs::directory_iterator(dir_, ec)) {
    if (ec) break;
    if (!dirent.is_regular_file(ec) || !IsContainerFile(dirent.path())) {
      continue;
    }
    CacheEntry entry;
    entry.file = dirent.path().filename().string();
    entry.bytes = dirent.file_size(ec);
    entries.push_back(std::move(entry));
  }
  if (ec) {
    return Status::IoError("cannot list cache directory '" + dir_ +
                           "': " + ec.message());
  }
  std::sort(entries.begin(), entries.end(),
            [](const CacheEntry& a, const CacheEntry& b) {
              return a.file < b.file;
            });
  return entries;
}

Result<ArtifactCache::VerifyReport> ArtifactCache::Verify(
    bool quarantine_corrupt) {
  VerifyReport report;
  std::vector<CacheEntry> entries;
  SSUM_ASSIGN_OR_RETURN(entries, ScanContainers());
  for (const CacheEntry& entry : entries) {
    const std::string path = dir_ + "/" + entry.file;
    bool corrupt = false;
    auto bytes = ReadFileBytes(env_, path);
    if (!bytes.ok()) {
      corrupt = true;
    } else {
      auto info = PeekContainer(*bytes);
      if (info.ok() && info->format_version != kContainerFormatVersion) {
        ++report.foreign;  // other generations are not ours to judge
        continue;
      }
      corrupt = !(info.ok() && ParseContainer(*bytes).ok());
    }
    if (!corrupt) {
      ++report.ok;
      continue;
    }
    ++report.corrupt;
    report.corrupt_files.push_back(entry.file);
    if (quarantine_corrupt && Quarantine(path)) ++report.quarantined;
  }
  return report;
}

Result<uint64_t> ArtifactCache::Clear() {
  std::error_code ec;
  if (!fs::exists(dir_, ec)) return uint64_t{0};
  uint64_t removed = 0;
  for (const auto& dirent : fs::directory_iterator(dir_, ec)) {
    if (ec) break;
    if (!dirent.is_regular_file(ec)) continue;
    const fs::path p = dirent.path();
    const std::string name = p.filename().string();
    const bool ours = IsContainerFile(p) || name == kCountersFile ||
                      name.find(".tmp.") != std::string::npos;
    if (!ours) continue;
    if (fs::remove(p, ec)) ++removed;
  }
  if (ec) {
    return Status::IoError("cannot clear cache directory '" + dir_ +
                           "': " + ec.message());
  }
  // Quarantined containers are cache files too.
  const fs::path qdir = fs::path(dir_) / ".quarantine";
  std::error_code qec;
  if (fs::exists(qdir, qec)) {
    for (const auto& dirent : fs::directory_iterator(qdir, qec)) {
      if (qec) break;
      if (!dirent.is_regular_file(qec)) continue;
      if (fs::remove(dirent.path(), qec)) ++removed;
    }
    fs::remove(qdir, qec);  // the now-empty directory itself
  }
  return removed;
}

}  // namespace ssum
